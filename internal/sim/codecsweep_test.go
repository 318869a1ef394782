package sim

import "testing"

func TestExtCodecSweep(t *testing.T) {
	tb, err := testRunner.extCodecSweep(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tb.Rows))
	}
	exact, paper, compact := tb.Rows[0], tb.Rows[1], tb.Rows[2]
	// The paper's 2-byte format is indistinguishable from exact floats.
	if d := parse(t, paper[3]) - parse(t, exact[3]); d < -0.01 || d > 0.01 {
		t.Errorf("2-byte accuracy %s differs from exact %s", paper[3], exact[3])
	}
	// The compact format halves the traffic...
	if parse(t, compact[2])*1.9 > parse(t, paper[2]) {
		t.Errorf("compact traffic %s not ~half of %s", compact[2], paper[2])
	}
	// ...at no more than a small accuracy cost.
	if parse(t, compact[3]) < parse(t, paper[3])-0.05 {
		t.Errorf("compact accuracy %s collapsed vs %s", compact[3], paper[3])
	}
}
