package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"isomap/internal/contour"
	"isomap/internal/core"
)

// checkpointDoc is the on-disk per-deployment checkpoint. Determinism
// makes it tiny: rounds are memoryless given the deployment's scenario
// (sim.RoundSource.SeekRound), and a published map depends only on its
// round's reports, so the resumable state is the round counter, the
// published version counter, and the snapshot's reports, which
// contour.ReconstructWorkers rebuilds the published map from byte for
// byte. A restarted server therefore serves snapshots (ETags, raster
// bytes, polylines) identical to a never-restarted same-seed run.
//
// The reports are stored under the field "arranged". Checkpoints written
// by earlier servers hold there the round's in-range reports grouped by
// level, some in an order that slots from earlier rounds assigned; any
// order that keeps each level's reports in their build order rebuilds
// the same map (TestRestoreSlotOrderCheckpoint).
type checkpointDoc struct {
	// ID, Nodes, Seed and FaultEvery identify the deployment the
	// checkpoint belongs to; restore refuses a checkpoint whose identity
	// does not match the configured deployment.
	ID         string `json:"id"`
	Nodes      int    `json:"nodes"`
	Seed       int64  `json:"seed"`
	FaultEvery int    `json:"faultEvery"`
	// Temporal captures the evolving-field and delta-protocol identity
	// (Config.temporalID); empty for the legacy configuration, so old
	// checkpoints keep restoring.
	Temporal string `json:"temporal,omitempty"`

	// Version is the published snapshot counter; Round the round
	// source's completed-round counter; SnapRound the published
	// snapshot's round label (they differ for pushed rounds).
	Version   int `json:"version"`
	Round     int `json:"round"`
	SnapRound int `json:"snapRound"`

	// Arranged is the published round's reports at Version, and
	// SinkValue/Reports/Faulted the snapshot metadata to republish.
	Arranged  []core.Report `json:"arranged"`
	SinkValue float64       `json:"sinkValue"`
	Reports   int           `json:"reports"`
	Faulted   bool          `json:"faulted"`
}

func (s *Server) checkpointPath(id string) string {
	return filepath.Join(s.cfg.CheckpointDir, id+".json")
}

// writeCheckpoint persists the deployment's resumable state; called with
// d.mu held, immediately after publishing sn, so the round source's
// counter matches it. The write is atomic (temp file + rename): a crash
// mid-write leaves the previous checkpoint intact, never a torn one.
func (s *Server) writeCheckpoint(d *deployment, sn *snapshot) error {
	doc := checkpointDoc{
		ID:         d.id,
		Nodes:      s.cfg.Nodes,
		Seed:       d.src.Env.Scenario.Seed,
		FaultEvery: s.cfg.FaultEvery,
		Temporal:   s.cfg.temporalID(),
		Version:    d.version,
		Round:      d.src.Round(),
		SnapRound:  sn.round,
		Arranged:   sn.input,
		SinkValue:  sn.sinkValue,
		Reports:    sn.reports,
		Faulted:    sn.faulted,
	}
	if err := os.MkdirAll(s.cfg.CheckpointDir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.cfg.CheckpointDir, d.id+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), s.checkpointPath(d.id))
}

// restore resumes a freshly built deployment from its checkpoint, if one
// exists. A missing checkpoint is a clean cold start. An unreadable or
// internally invalid one is logged, counted and *ignored* — self-healing
// beats refusing to boot — but a checkpoint whose identity (seed, node
// count, fault cadence) contradicts the configuration is a hard error:
// resuming it would silently serve a different deployment's data.
func (s *Server) restore(d *deployment) error {
	b, err := os.ReadFile(s.checkpointPath(d.id))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		serveVars().Add("restore_errors", 1)
		s.logf("serve: %s checkpoint unreadable, starting cold: %v", d.id, err)
		return nil
	}
	var doc checkpointDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		serveVars().Add("restore_errors", 1)
		s.logf("serve: %s checkpoint corrupt, starting cold: %v", d.id, err)
		return nil
	}
	if doc.ID != d.id || doc.Nodes != s.cfg.Nodes || doc.Seed != d.src.Env.Scenario.Seed || doc.FaultEvery != s.cfg.FaultEvery || doc.Temporal != s.cfg.temporalID() {
		return fmt.Errorf("checkpoint identity mismatch: checkpoint (id=%s nodes=%d seed=%d faultEvery=%d temporal=%q) vs config (id=%s nodes=%d seed=%d faultEvery=%d temporal=%q)",
			doc.ID, doc.Nodes, doc.Seed, doc.FaultEvery, doc.Temporal, d.id, s.cfg.Nodes, d.src.Env.Scenario.Seed, s.cfg.FaultEvery, s.cfg.temporalID())
	}
	if doc.Version < 1 || doc.Round < 0 {
		serveVars().Add("restore_errors", 1)
		s.logf("serve: %s checkpoint has invalid counters (version=%d round=%d), starting cold", d.id, doc.Version, doc.Round)
		return nil
	}
	if err := validateRound(doc.Arranged, doc.SinkValue); err != nil {
		serveVars().Add("restore_errors", 1)
		s.logf("serve: %s checkpoint holds invalid reports, starting cold: %v", d.id, err)
		return nil
	}
	if err := d.src.SeekRound(doc.Round); err != nil {
		return err
	}
	d.version = doc.Version
	d.snap.Store(&snapshot{
		version:   doc.Version,
		round:     doc.SnapRound,
		etag:      fmt.Sprintf("%q", fmt.Sprintf("%s-v%d", d.id, doc.Version)),
		m:         contour.ReconstructWorkers(doc.Arranged, d.levels, d.bounds, doc.SinkValue, d.opts, s.workers),
		input:     doc.Arranged,
		sinkValue: doc.SinkValue,
		reports:   doc.Reports,
		faulted:   doc.Faulted,
	})
	// The artifact cache is in-process memory, so a restart can never
	// resurrect pre-restart bytes — but restore is still a publish, so it
	// invalidates like every other one. If a restored server re-reaches a
	// version number the dead process also served (checkpoint at v3,
	// different rounds ingested after restart), its caches refill from its
	// own renders; nothing ties them to the old process's bytes.
	d.cache.invalidate(doc.Version)
	serveVars().Add("restores", 1)
	s.logf("serve: %s restored from checkpoint at version %d (round %d)", d.id, doc.Version, doc.Round)
	return nil
}
