package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// realCheckpoint runs a short faulted campaign with quarantine armed and
// returns the bytes of the last checkpoint it wrote, runtime state
// included.
func realCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	const seed = 46
	p, platform := newProber(tb, seed, 3, 60)
	path := filepath.Join(tb.TempDir(), "run.ckpt")
	sink := NewWriteSink(newBufCheckpointWriter())
	cfg := TracerouteCampaignConfig{
		Pairs:          UnorderedPairs(SelectMesh(platform, 5, seed)),
		Duration:       2 * time.Hour,
		Interval:       15 * time.Minute,
		BothDirections: true,
		Workers:        2,
		Resilience: Resilience{
			Faults:          attachStandardPlan(tb, p, platform, seed, 3),
			Retry:           RetryPolicy{MaxAttempts: 2},
			QuarantineAfter: 2,
			ReprobeEvery:    3,
		},
		Checkpoint: &Checkpointer{
			Path: path, Interval: 30 * time.Minute, Sink: sink, Records: sink.Count,
			Tool: "s2sgen", Seed: seed, TopoDigest: "deadbeef", Faults: "standard",
		},
	}
	if err := TracerouteCampaign(p, cfg, sink); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzLoadCheckpoint feeds LoadCheckpoint arbitrary file contents, an
// input a resumed run does not control. No input may panic, and every
// accepted checkpoint must save and load back to an equal value. Values
// compare by their encoding: an empty and a nil pair list are the same
// runtime state.
func FuzzLoadCheckpoint(f *testing.F) {
	f.Add(realCheckpoint(f))
	f.Add([]byte(`{"version":1,"campaign":"pings","seed":-3,"resume_at_ns":-1}`))
	f.Add([]byte(`{"version":1,"runtime":{"rounds":2,"pairs":[{"src":1,"dst":1,"q":true,"since":-9}]}}`))
	f.Add([]byte(`{"version":1,"runtime":null,"tool":"\xff"}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`[]`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "in.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := LoadCheckpoint(path)
		if err != nil {
			return
		}
		again := filepath.Join(dir, "again.ckpt")
		if err := saveCheckpoint(again, cp); err != nil {
			t.Fatalf("accepted checkpoint does not save: %v", err)
		}
		back, err := LoadCheckpoint(again)
		if err != nil {
			t.Fatalf("saved checkpoint does not load: %v", err)
		}
		a, _ := json.Marshal(cp)
		b, _ := json.Marshal(back)
		if !bytes.Equal(a, b) {
			t.Fatalf("checkpoint changed across save and load:\n%s\n%s", a, b)
		}
	})
}
