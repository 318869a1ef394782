// Package monitor holds the sink side of continuous contour monitoring —
// the deployment mode of the paper's motivating harbor application, where
// the silting sea route is mapped round after round rather than once.
// AgedMap is the sink's belief under the packet engine's delta-report
// protocol (desim.DeltaState): it merges each round's crossing reports
// and retirement records and ages out entries a lost retirement would
// otherwise pin forever.
package monitor

import (
	"fmt"
	"sort"

	"isomap/internal/core"
	"isomap/internal/network"
	"isomap/internal/trace"
)

// AgedMap is the sink half of the delta-report protocol: the sink's
// current belief as a report per (source, isolevel), each entry stamped
// with the round that last refreshed it. Delta rounds feed it what the
// network delivered — crossing reports upsert their entry, retirement
// records withdraw theirs — and the merged, deterministically ordered
// view feeds contour reconstruction.
//
// Aging is the staleness guard: a retirement lost to the radio would
// otherwise pin its stale report forever, so entries not refreshed
// within ExpiryRounds rounds are dropped. On a static field (or with
// aging disabled) nothing expires and the belief is exactly the union of
// everything reported minus everything retired.
type AgedMap struct {
	cfg     AgedConfig
	entries map[cacheKey]agedEntry
}

// AgedConfig tunes sink-side retention.
type AgedConfig struct {
	// ExpiryRounds bounds how many rounds an entry survives without a
	// refresh; an entry refreshed at round r is dropped after round
	// r+ExpiryRounds. Zero disables aging entirely.
	ExpiryRounds int
}

// cacheKey identifies one belief entry: a source node's report on one
// isolevel.
type cacheKey struct {
	source network.NodeID
	level  int
}

type agedEntry struct {
	report core.Report
	round  int // round that last refreshed the entry
}

// NewAgedMap validates cfg and returns an empty belief.
func NewAgedMap(cfg AgedConfig) (*AgedMap, error) {
	if cfg.ExpiryRounds < 0 {
		return nil, fmt.Errorf("monitor: negative expiry %d rounds", cfg.ExpiryRounds)
	}
	return &AgedMap{cfg: cfg, entries: make(map[cacheKey]agedEntry)}, nil
}

// AgedStats tallies one Apply call.
type AgedStats struct {
	// Fresh counts reports upserted, Retired withdrawals honored, and
	// Expired entries aged out this round.
	Fresh   int
	Retired int
	Expired int
	// Size is the belief size after the round.
	Size int
}

// Apply folds one round's delivered reports into the belief and runs the
// expiry pass. round is the 1-based round number; rec, when non-nil,
// receives a KindAgeExpire event per aged-out entry (post-round sink
// events, recorded at T=0 like the reconstruction stages).
func (m *AgedMap) Apply(round int, delivered []core.Report, rec *trace.Recorder) AgedStats {
	var st AgedStats
	for _, r := range delivered {
		key := cacheKey{source: r.Source, level: r.LevelIndex}
		if r.Retire {
			if _, ok := m.entries[key]; ok {
				delete(m.entries, key)
				st.Retired++
			}
			continue
		}
		m.entries[key] = agedEntry{report: r, round: round}
		st.Fresh++
	}
	if m.cfg.ExpiryRounds > 0 {
		var expired []cacheKey
		for key, e := range m.entries {
			if round-e.round > m.cfg.ExpiryRounds {
				expired = append(expired, key)
			}
		}
		// Map iteration is randomized; expire (and trace) in fixed order.
		sort.Slice(expired, func(i, j int) bool {
			if expired[i].source != expired[j].source {
				return expired[i].source < expired[j].source
			}
			return expired[i].level < expired[j].level
		})
		for _, key := range expired {
			delete(m.entries, key)
			st.Expired++
			if rec != nil {
				rec.Record(trace.Event{Kind: trace.KindAgeExpire,
					Node: int32(key.source), Peer: -1, Arg: int32(key.level)})
			}
		}
	}
	st.Size = len(m.entries)
	return st
}

// Reports returns the belief in deterministic (source, isolevel) order —
// the reconstruction feed.
func (m *AgedMap) Reports() []core.Report {
	out := make([]core.Report, 0, len(m.entries))
	for _, e := range m.entries {
		out = append(out, e.report)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Source != out[j].Source {
			return out[i].Source < out[j].Source
		}
		return out[i].LevelIndex < out[j].LevelIndex
	})
	return out
}

// Len returns the belief size.
func (m *AgedMap) Len() int { return len(m.entries) }

// MeanAge returns the belief's mean staleness in rounds as of round
// (0 for an empty belief): the tracking-error experiments' staleness
// metric.
func (m *AgedMap) MeanAge(round int) float64 {
	if len(m.entries) == 0 {
		return 0
	}
	sum := 0
	for _, e := range m.entries {
		sum += round - e.round
	}
	return float64(sum) / float64(len(m.entries))
}

// Ages returns the per-source staleness of the belief as of round, for
// diagnostics: source -> oldest tracked entry age.
func (m *AgedMap) Ages(round int) map[network.NodeID]int {
	out := make(map[network.NodeID]int)
	for key, e := range m.entries {
		if age := round - e.round; age > out[key.source] {
			out[key.source] = age
		}
	}
	return out
}

// Reset empties the belief.
func (m *AgedMap) Reset() {
	m.entries = make(map[cacheKey]agedEntry)
}
