package faults

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"isomap/internal/core"
	"isomap/internal/geom"
	"isomap/internal/network"
)

func TestZeroValuePlanInjectsNothing(t *testing.T) {
	var p Plan
	if !p.Empty() {
		t.Error("zero-value plan should be empty")
	}
	if p.Links(linkNetwork(t, 16, 1)) != nil {
		t.Error("zero-value plan built a lossy channel")
	}
	if p.Crashes() != nil {
		t.Error("zero-value plan has crashes")
	}
	reports := []core.Report{{Level: 6, Pos: geom.Point{X: 1, Y: 2}}}
	if got := p.MangleSinkReports(reports, geom.Rect(0, 0, 10, 10)); len(got) != 1 || got[0] != reports[0] {
		t.Errorf("zero-value plan mangled reports: %v", got)
	}
	var nilPlan *Plan
	if !nilPlan.Empty() || nilPlan.Links(linkNetwork(t, 16, 1)) != nil {
		t.Error("nil plan should be empty and lossless")
	}
}

func TestNewValidates(t *testing.T) {
	bad := []Config{
		{LossRate: -0.1},
		{LossRate: 1},
		{Burstiness: -0.5},
		{Burstiness: 1},
		{CrashFraction: 1.5},
		{CrashStart: 2, CrashEnd: 1},
		{CorruptRate: -1},
		{DuplicateRate: 2},
	}
	for _, cfg := range bad {
		if _, err := New(cfg, 100); err == nil {
			t.Errorf("config %+v: want error", cfg)
		}
	}
}

func TestBernoulliLossRate(t *testing.T) {
	p, err := New(Config{Seed: 7, Channel: ChannelBernoulli, LossRate: 0.3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ch := newMapStreams(p)
	lost, n := 0, 200000
	for i := 0; i < n; i++ {
		if ch.Lose(network.NodeID(i%50), network.NodeID((i+1)%50)) {
			lost++
		}
	}
	rate := float64(lost) / float64(n)
	if math.Abs(rate-0.3) > 0.01 {
		t.Errorf("empirical loss rate %.4f, want 0.3 +- 0.01", rate)
	}
}

// TestGilbertElliottZeroBurstinessMatchesBernoulli checks the channel
// satellite: at burstiness 0 the Gilbert–Elliott chain redraws its state
// independently every reception, so its loss process is statistically
// indistinguishable from Bernoulli at the same rate.
func TestGilbertElliottZeroBurstinessMatchesBernoulli(t *testing.T) {
	const lossRate = 0.25
	const n = 200000
	sample := func(kind ChannelKind) (rate, lag1 float64) {
		p, err := New(Config{Seed: 3, Channel: kind, LossRate: lossRate}, 0)
		if err != nil {
			t.Fatal(err)
		}
		ch := newMapStreams(p)
		lost := 0
		pairs, both := 0, 0
		prev := false
		for i := 0; i < n; i++ {
			l := ch.Lose(4, 9) // one link: the chain state is per link
			if l {
				lost++
			}
			if i > 0 {
				pairs++
				if l && prev {
					both++
				}
			}
			prev = l
		}
		return float64(lost) / n, float64(both) / float64(pairs)
	}
	bRate, bLag := sample(ChannelBernoulli)
	gRate, gLag := sample(ChannelGilbertElliott)
	if math.Abs(bRate-gRate) > 0.01 {
		t.Errorf("loss rates diverge: bernoulli %.4f vs GE(0) %.4f", bRate, gRate)
	}
	// Consecutive-loss frequency must match the independent product p^2
	// for both processes (no burst correlation at burstiness 0).
	want := lossRate * lossRate
	if math.Abs(bLag-want) > 0.01 || math.Abs(gLag-want) > 0.01 {
		t.Errorf("lag-1 loss-pair freq: bernoulli %.4f, GE(0) %.4f, want %.4f +- 0.01", bLag, gLag, want)
	}
}

// TestGilbertElliottBurstinessStretchesBursts checks that positive
// burstiness preserves the stationary rate but lengthens loss runs.
func TestGilbertElliottBurstinessStretchesBursts(t *testing.T) {
	const lossRate = 0.2
	const n = 300000
	meanRun := func(burst float64) (rate, run float64) {
		p, err := New(Config{Seed: 11, Channel: ChannelGilbertElliott, LossRate: lossRate, Burstiness: burst}, 0)
		if err != nil {
			t.Fatal(err)
		}
		ch := newMapStreams(p)
		lost, runs, cur := 0, 0, 0
		var total int
		for i := 0; i < n; i++ {
			if ch.Lose(1, 2) {
				lost++
				cur++
			} else if cur > 0 {
				runs++
				total += cur
				cur = 0
			}
		}
		if cur > 0 {
			runs++
			total += cur
		}
		return float64(lost) / n, float64(total) / float64(runs)
	}
	r0, run0 := meanRun(0)
	r8, run8 := meanRun(0.8)
	if math.Abs(r0-lossRate) > 0.01 || math.Abs(r8-lossRate) > 0.015 {
		t.Errorf("stationary rate drifted: %.4f (burst 0), %.4f (burst 0.8), want %.2f", r0, r8, lossRate)
	}
	// Expected run length is 1/pBG = 1/((1-p)(1-b)): 1.25 at b=0, 6.25 at b=0.8.
	if run8 < 3*run0 {
		t.Errorf("burstiness 0.8 mean run %.2f not much longer than burst 0's %.2f", run8, run0)
	}
}

func TestCrashScheduleRespectsProtectAndFraction(t *testing.T) {
	const n = 500
	p, err := New(Config{
		Seed: 5, CrashFraction: 0.2, CrashStart: 0.1, CrashEnd: 0.9,
		Protect: []network.NodeID{3, 250},
	}, n)
	if err != nil {
		t.Fatal(err)
	}
	crashes := p.Crashes()
	if len(crashes) != 100 {
		t.Fatalf("crash count %d, want 100", len(crashes))
	}
	seen := make(map[network.NodeID]bool)
	for i, c := range crashes {
		if c.Node == 3 || c.Node == 250 {
			t.Errorf("protected node %d crashed", c.Node)
		}
		if seen[c.Node] {
			t.Errorf("node %d crashes twice", c.Node)
		}
		seen[c.Node] = true
		if c.Time < 0.1 || c.Time > 0.9 {
			t.Errorf("crash time %g outside window", c.Time)
		}
		if i > 0 && crashes[i-1].Time > c.Time {
			t.Error("crash schedule not sorted by time")
		}
	}
}

func TestMangleSinkReportsRates(t *testing.T) {
	bounds := geom.Rect(0, 0, 50, 50)
	in := make([]core.Report, 20000)
	for i := range in {
		in[i] = core.Report{Level: 6, Pos: geom.Point{X: 25, Y: 25}, Grad: geom.Vec{X: 1}}
	}
	p, err := New(Config{Seed: 2, CorruptRate: 0.1, DuplicateRate: 0.05}, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := p.MangleSinkReports(in, bounds)
	dups := len(out) - len(in)
	if math.Abs(float64(dups)/float64(len(in))-0.05) > 0.01 {
		t.Errorf("duplication rate %.4f, want 0.05 +- 0.01", float64(dups)/float64(len(in)))
	}
	corrupted := 0
	for _, r := range out {
		if r.Pos != in[0].Pos {
			corrupted++
			x0, y0, x1, y1 := bounds.BoundingBox()
			if r.Pos.X < x0 || r.Pos.X > x1 || r.Pos.Y < y0 || r.Pos.Y > y1 {
				t.Fatalf("corrupted position %v escaped the field", r.Pos)
			}
		}
	}
	// Corrupted originals plus their duplicates; rate over output.
	if corrupted == 0 {
		t.Error("no report was corrupted at rate 0.1")
	}
}

// TestPlanByteIdenticalAcrossRunsAndWidths checks the determinism
// satellite: plans built from one config are byte-identical whether built
// serially, repeatedly, or from many goroutines at any width — the
// construction is a pure function of the config.
func TestPlanByteIdenticalAcrossRunsAndWidths(t *testing.T) {
	cfg := Config{
		Seed: 42, Channel: ChannelGilbertElliott, LossRate: 0.2, Burstiness: 0.6,
		CrashFraction: 0.1, CrashStart: 0.05, CrashEnd: 0.5,
		Protect:     []network.NodeID{17},
		CorruptRate: 0.02, DuplicateRate: 0.01,
	}
	ref, err := New(cfg, 400)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Signature()
	for _, width := range []int{1, 4, 16} {
		sigs := make([][]byte, width*3)
		var wg sync.WaitGroup
		for i := range sigs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				p, err := New(cfg, 400)
				if err != nil {
					t.Error(err)
					return
				}
				sigs[i] = p.Signature()
			}(i)
		}
		wg.Wait()
		for i, sig := range sigs {
			if !bytes.Equal(sig, want) {
				t.Fatalf("width %d, plan %d: signature diverged", width, i)
			}
		}
	}
	// The channel streams behind equal signatures also replay identically.
	nw := linkNetwork(t, 400, 9)
	a, _ := New(cfg, 400)
	b, _ := New(cfg, 400)
	la, lb := a.Links(nw), b.Links(nw)
	for i := 0; i < 5000; i++ {
		from := network.NodeID(i * 7 % 400)
		j := i % len(nw.Neighbors(from))
		if la.Lose(from, j) != lb.Lose(from, j) {
			t.Fatalf("channel draw %d diverged between equal plans", i)
		}
	}
}

// TestLossRatesOverManyShortLinks checks the access pattern a packet
// round produces — tens of thousands of directed links, each drawn only a
// few times — rather than a few long-lived links: the stationary loss
// rate must hold for Bernoulli and for Gilbert–Elliott chains that start
// from their stationary state and take only a handful of steps.
func TestLossRatesOverManyShortLinks(t *testing.T) {
	const links, draws = 20000, 5
	// Tolerances are about four standard errors of the 100k-draw mean;
	// bursty chains correlate draws within a link, which widens theirs.
	for _, c := range []struct {
		name string
		cfg  Config
		tol  float64
	}{
		{"bernoulli", Config{Seed: 13, Channel: ChannelBernoulli, LossRate: 0.05}, 0.003},
		{"ge", Config{Seed: 13, Channel: ChannelGilbertElliott, LossRate: 0.05, Burstiness: 0.5}, 0.005},
		{"ge-heavy", Config{Seed: 29, Channel: ChannelGilbertElliott, LossRate: 0.3, Burstiness: 0.8}, 0.012},
	} {
		p, err := New(c.cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		ch := newMapStreams(p)
		lost := 0
		for i := 0; i < links; i++ {
			// Neighbour-like links: small id gaps, both directions.
			from, to := network.NodeID(i/2), network.NodeID(i/2+1+i%7)
			if i%2 == 1 {
				from, to = to, from
			}
			for d := 0; d < draws; d++ {
				if ch.Lose(from, to) {
					lost++
				}
			}
		}
		rate := float64(lost) / (links * draws)
		t.Logf("%s: empirical loss rate %.4f", c.name, rate)
		if math.Abs(rate-c.cfg.LossRate) > c.tol {
			t.Errorf("%s: empirical loss rate %.4f over %d links x %d draws, want %.2f +- %.3f",
				c.name, rate, links, draws, c.cfg.LossRate, c.tol)
		}
	}
}

// TestLoseAllocatesNothingOnKnownLink pins the per-draw cost: once the
// plan's link table is built, drawing from it allocates nothing.
func TestLoseAllocatesNothingOnKnownLink(t *testing.T) {
	nw := linkNetwork(t, 64, 5)
	for _, kind := range []ChannelKind{ChannelBernoulli, ChannelGilbertElliott} {
		p, err := New(Config{Seed: 5, Channel: kind, LossRate: 0.2, Burstiness: 0.5}, 0)
		if err != nil {
			t.Fatal(err)
		}
		links := p.Links(nw)
		if allocs := testing.AllocsPerRun(1000, func() { links.Lose(3, 0) }); allocs != 0 {
			t.Errorf("channel %d: Lose allocates %.1f times, want 0", kind, allocs)
		}
	}
}
