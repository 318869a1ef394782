package desim

import (
	"isomap/internal/core"
	"isomap/internal/network"
)

// Round memory: a packet round's per-node protocol storage comes from a
// few per-shard blocks instead of one allocation per node, and all of it
// is garbage once RunRound returns — nothing is pooled or kept between
// rounds (DESIGN.md "Packet-engine complexity").

// blockChunk is the element count of one block chunk.
const blockChunk = 1024

// block carves per-node slices out of shared chunks. A slice that
// outgrows its capacity moves to a fresh carving of twice the size; the
// space it leaves behind is not reused. Slices carved from a block must
// only ever grow through it.
type block[T any] struct {
	free []T
}

// grow returns s with room for extra more elements, carving a new
// backing region (and copying s into it) when s lacks the capacity.
func (b *block[T]) grow(s []T, extra int) []T {
	if len(s)+extra <= cap(s) {
		return s
	}
	c := max(2*cap(s), len(s)+extra, 4)
	if len(b.free) < c {
		b.free = make([]T, max(c, blockChunk))
	}
	ns := b.free[:len(s):c]
	copy(ns, s)
	b.free = b.free[c:]
	return ns
}

// seenSet is a shard's report dedup: the (node, report) pairs its nodes
// have accepted this round, in one open-addressed table hashed on the
// report's identity (node, Source, LevelIndex, Retire). A probe compares
// the full report with ==, so the set answers exactly what one
// map[core.Report]bool per node answered: a report holding a NaN never
// matches, not even itself, and +0 matches -0.
type seenSet struct {
	// slots index ents (plus one; zero is empty); len(slots) is a power
	// of two at least twice len(ents).
	slots []int32
	ents  []seenReport
}

type seenReport struct {
	r  core.Report
	at network.NodeID
}

// identityHash mixes the identity a report is hashed on.
func identityHash(at network.NodeID, r *core.Report) uint64 {
	h := uint64(at)*0x9E3779B97F4A7C15 ^ uint64(r.Source)*0xC2B2AE3D27D4EB4F ^ uint64(r.LevelIndex)*0x165667B19E3779F9
	if r.Retire {
		h ^= 0xD6E8FEB86659FD93
	}
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}

// add inserts (at, r) and reports whether it was absent.
func (s *seenSet) add(at network.NodeID, r *core.Report) bool {
	if 2*(len(s.ents)+1) > len(s.slots) {
		s.rehash()
	}
	mask := uint64(len(s.slots) - 1)
	i := identityHash(at, r) & mask
	for {
		e := s.slots[i]
		if e == 0 {
			break
		}
		if x := &s.ents[e-1]; x.at == at && x.r == *r {
			return false
		}
		i = (i + 1) & mask
	}
	s.ents = append(s.ents, seenReport{r: *r, at: at})
	s.slots[i] = int32(len(s.ents))
	return true
}

// rehash doubles the slot table (allocating the first one) and refiles
// every entry.
func (s *seenSet) rehash() {
	n := max(2*len(s.slots), 256)
	s.slots = make([]int32, n)
	mask := uint64(n - 1)
	for k := range s.ents {
		i := identityHash(s.ents[k].at, &s.ents[k].r) & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = int32(k + 1)
	}
}
