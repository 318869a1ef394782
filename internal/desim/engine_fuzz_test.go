package desim

import (
	"math"
	"reflect"
	"testing"

	"isomap/internal/network"
)

// fuzzSchedule decodes a byte string into scheduling operations. Reads
// past the end yield zero, so every input decodes.
type fuzzSchedule struct {
	data []byte
	i    int
}

func (s *fuzzSchedule) next() byte {
	if s.i >= len(s.data) {
		return 0
	}
	b := s.data[s.i]
	s.i++
	return b
}

// delay decodes a non-negative offset: zero, a coarse step that collides
// timestamps, a power of two from 2^-160 to 2^95 (widely spread
// exponents, some absorbed by now), or a subnormal.
func (s *fuzzSchedule) delay() float64 {
	mode, b := s.next(), s.next()
	switch mode % 4 {
	case 0:
		return 0
	case 1:
		return float64(b%4) * 0.25
	case 2:
		return math.Ldexp(1, int(b)-160)
	default:
		return float64(b) * math.SmallestNonzeroFloat64
	}
}

// event decodes a typed event with few distinct field values, so most
// same-time pairs tie deep into the key; nodes reach the top of the
// packed 24-bit range.
func (s *fuzzSchedule) event() Event {
	k, n, q, a := s.next(), s.next(), s.next(), s.next()
	node := network.NodeID(n % 32)
	if k&0x80 != 0 {
		node = network.NodeID(n)<<16 | 0xffff
	}
	return Event{Kind: EventKind(k%16) + 1, Node: node, Seq: int64(q % 4), Arg: int32(a % 4)}
}

// driveSchedule executes the decoded schedule on eng. Handlers spawn
// bounded zero- and short-delay follow-ups; closures record themselves in
// the trace under the evClosure kind.
func driveSchedule(eng windowedEngine, data []byte) engineRun {
	s := &fuzzSchedule{data: data}
	var r engineRun
	spawn := 64
	eng.SetHandler(func(ev Event) {
		r.Trace = append(r.Trace, recordedEvent{T: eng.Now(), Ev: ev})
		if ev.Arg == 0 && spawn > 0 {
			spawn--
			ev.Arg = 4
			eng.ScheduleEvent(float64(ev.Seq%2)*0.25, ev)
		}
	})
	closures := int64(0)
	for s.i < len(s.data) {
		switch s.next() % 8 {
		case 0, 1:
			eng.ScheduleEvent(s.delay(), s.event())
		case 2:
			closures++
			id := closures
			eng.Schedule(s.delay(), func() {
				r.Trace = append(r.Trace, recordedEvent{T: eng.Now(), Ev: Event{Kind: evClosure, Seq: id}})
			})
		case 3:
			// Absolute times at or before now (clamped), including -0.
			at := math.Copysign(0, -1)
			if b := s.next(); b%2 == 1 {
				at = eng.Now() - float64(b)
			}
			eng.ScheduleEventAt(at, s.event())
		case 4:
			if t0, ok := eng.NextTime(); ok {
				r.Peeks = append(r.Peeks, t0)
				eng.RunBefore(t0 + s.delay())
			}
		case 5:
			// The mailbox-drain hazard: land between now and the earliest
			// queued event without popping anything first.
			next, ok := eng.NextTime()
			at, now := eng.Now(), eng.Now()
			if ok && next > now {
				at = now + (next-now)*float64(s.next())/256
			}
			eng.ScheduleEventAt(at, s.event())
		case 6:
			eng.RunUntil(eng.Now() + s.delay())
		default:
			t0, _ := eng.NextTime()
			r.Peeks = append(r.Peeks, t0)
		}
	}
	r.finish(eng)
	return r
}

// FuzzEngineOrder requires the production Engine to match the
// EngineNaive oracle on arbitrary schedules: identical dispatch traces,
// NextTime peeks, final time, Steps and MaxQueueDepth.
func FuzzEngineOrder(f *testing.F) {
	// An event at 0.25, a peek, then a push at 0.125: the peek hazard.
	f.Add([]byte{0, 1, 1, 1, 2, 3, 1, 7, 5, 128, 1, 2, 3, 0})
	f.Add([]byte{0, 1, 2, 1, 2, 3, 0, 0, 1, 0, 0, 0, 0, 0, 4, 1, 1})
	f.Add([]byte{0, 2, 200, 0x81, 7, 1, 0, 0, 2, 40, 4, 2, 2, 5, 128, 1, 1, 1, 1, 7})
	f.Add([]byte{3, 0, 5, 5, 0, 1, 3, 1, 4, 2, 0, 6, 2, 1, 0, 3, 1, 2, 2, 5, 0, 2, 0})
	f.Add([]byte{2, 3, 9, 0, 0, 5, 6, 0, 0, 0, 0, 1, 2, 10, 9, 9, 9, 9, 4, 0, 0, 5, 255, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		fast := driveSchedule(NewEngine(), data)
		naive := driveSchedule(NewEngineNaive(), data)
		if !reflect.DeepEqual(fast, naive) {
			t.Fatalf("engines diverged: %d vs %d events, steps %d vs %d, depth %d vs %d, end %v vs %v",
				len(fast.Trace), len(naive.Trace), fast.Steps, naive.Steps, fast.Depth, naive.Depth, fast.End, naive.End)
		}
	})
}
