package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"graphkeys"
	"graphkeys/internal/chase"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/match"
	"graphkeys/internal/wal"
)

// layerReps is how often each timed layer call repeats; the median is
// reported.
const layerReps = 3

// traceLayers measures each layer from outside, by timing calls into
// its public functions on the run's inputs and state: rec is the
// matcher recovered after the last phase, crash the crash image the
// restarts recovered from. It runs after the phase script, so the
// end-to-end figures of the same run are not disturbed by it.
func (b *bench) traceLayers(crash, finalText string, rec *graphkeys.Matcher) error {
	set, err := keys.ParseString(b.w.keysText)
	if err != nil {
		return err
	}
	loaded, err := graph.ParseText(strings.NewReader(b.w.graphText))
	if err != nil {
		return err
	}

	var streamS []float64
	candidates := 0
	for i := 0; i < layerReps; i++ {
		mm, err := match.New(loaded, set, match.Options{})
		if err != nil {
			return err
		}
		runtime.GC()
		t0 := time.Now()
		n := 0
		for range mm.CandidateStream() {
			n++
		}
		streamS = append(streamS, time.Since(t0).Seconds())
		candidates = n
	}
	b.m["match.candidates"] = float64(candidates)
	b.m["match.stream_s"] = median(streamS)

	var runS []float64
	var seq *chase.Result
	for i := 0; i < layerReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if seq, err = chase.Run(loaded, set, chase.Options{}); err != nil {
			return err
		}
		runS = append(runS, time.Since(t0).Seconds())
	}
	par, err := chase.Run(loaded, set, chase.Options{Parallelism: b.nproc})
	if err != nil {
		return err
	}
	b.m["chase.run_s"] = median(runS)
	b.m["chase.key_checks"] = float64(seq.IsoSteps)
	b.m["chase.key_checks_par"] = float64(par.IsoSteps)
	b.m["chase.par_work_ratio"] = ratio(float64(par.IsoSteps), float64(seq.IsoSteps))
	b.m["chase.identified_per_check"] = ratio(float64(len(seq.Steps)), float64(seq.IsoSteps))

	final, err := graph.ParseText(strings.NewReader(finalText))
	if err != nil {
		return err
	}
	fix, err := chase.Run(final, set, chase.Options{})
	if err != nil {
		return err
	}
	mm, err := match.New(final, set, match.Options{})
	if err != nil {
		return err
	}
	universe := mm.KeyedEntities()
	var pairsS []float64
	for i := 0; i < layerReps; i++ {
		runtime.GC()
		t0 := time.Now()
		b.m["eqrel.pairs"] = float64(len(fix.Eq.Pairs(universe)))
		pairsS = append(pairsS, time.Since(t0).Seconds())
	}
	b.m["eqrel.pairs_s"] = median(pairsS)

	if rec != nil {
		var resultS []float64
		for i := 0; i < layerReps; i++ {
			runtime.GC()
			t0 := time.Now()
			rec.Result()
			resultS = append(resultS, time.Since(t0).Seconds())
		}
		b.m["graphkeys.result_s"] = median(resultS)
		b.m["graphkeys.same_us"] = b.timeSame(rec)
	}

	openS, err := timeWALOpen(crash, b.root)
	if err != nil {
		return err
	}
	b.m["wal.open_s"] = openS
	b.layerFromRegistry()
	return nil
}

// sameCalls is how many Matcher.Same calls one timed loop makes.
const sameCalls = 100_000

// timeSame is the mean time of a direct Matcher.Same call, the median
// over layerReps loops of sameCalls calls each. The answers are checked
// against the model before the loops, not inside them.
func (b *bench) timeSame(m *graphkeys.Matcher) float64 {
	pairs := b.w.pairReads()
	for _, r := range pairs {
		if m.Same(r.a, r.b) != r.same {
			b.fail("Matcher.Same(%s, %s) disagrees with the model", r.a, r.b)
			return 0
		}
	}
	var per []float64
	for i := 0; i < layerReps; i++ {
		t0 := time.Now()
		for j := 0; j < sameCalls; j++ {
			r := pairs[j%len(pairs)]
			m.Same(r.a, r.b)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/1e3/sameCalls)
	}
	return median(per)
}

// timeWALOpen times wal.Open on a copy of the crash image: reading and
// decoding the snapshot and the logged writes, without the re-chase
// and the replay.
func timeWALOpen(crash, root string) (float64, error) {
	cp := filepath.Join(root, "wal-copy")
	if err := copyDir(crash, cp); err != nil {
		return 0, err
	}
	var ts []float64
	for i := 0; i < layerReps; i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := wal.Open(cp, wal.SyncAlways)
		if err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
		if err := s.Close(); err != nil {
			return 0, fmt.Errorf("close WAL copy: %w", err)
		}
	}
	return median(ts), nil
}

// layerFromRegistry derives the per-layer figures that come from the
// phases themselves: registry differences over the writes of the
// rounds phase and over the mixed phase, and the timings taken during
// set-up and the restarts.
func (b *bench) layerFromRegistry() {
	p3, p4 := b.write, b.mixed
	b.m["graph.load_s"] = median(b.loadS)
	b.m["graph.plan_us_per_delta"] = p3.perDelta(float64(p3.hist("graph.plan_ns").Sum) / 1e3)
	b.m["graph.commit_wait_us_per_delta"] = p3.perDelta(float64(p3.hist("graph.commit_wait_ns").Sum) / 1e3)
	b.m["graph.lower_us_per_delta"] = p3.perDelta(float64(p3.hist("graph.lower_ns").Sum) / 1e3)
	b.m["graph.plan_retries"] = p3.counter("graph.plan_retries")
	b.m["match.postings_scanned"] = float64(b.postings)
	b.m["engine.parallel_items"] = p3.counter("engine.parallel_items")
	b.m["engine.pool_steals"] = p3.counter("engine.pool_steals")
	b.m["inc.checked_per_delta"] = p3.perDelta(p3.counter("inc.checked"))
	b.m["inc.region_per_delta"] = p3.perDelta(p3.counter("inc.region"))
	b.m["inc.deltas_per_repair"] = ratio(p3.counter("inc.merged"), p3.counter("inc.repairs"))
	fsync := p3.hist("wal.fsync_ns")
	b.m["wal.fsyncs_per_delta"] = p3.perDelta(float64(fsync.Count))
	b.m["wal.group_size"] = p3.hist("wal.group_size").Mean()
	b.m["wal.fsync_us"] = fsync.Mean() / 1e3
	b.m["wal.bytes_per_delta"] = p3.perDelta(float64(b.walGrowth))
	b.m["wal.snapshot_s"] = median(b.snapshotS)
	b.m["wal.snapshot_mb"] = float64(b.snapshotBytes) / 1e6
	b.m["graphkeys.open_s"] = median(b.openS)
	b.m["graphkeys.apply_batch_ms"] = p3.hist("matcher.apply_batch_ns").Mean() / 1e6
	b.m["graphkeys.writer_batch_size"] = p3.hist("writer.batch_size").Mean()
	b.m["serve.same_us"] = float64(p4.hist("serve.same_ns").Quantile(0.5)) / 1e3
	b.m["serve.apply_ms"] = float64(p3.hist("serve.apply_ns").Quantile(0.5)) / 1e6
	b.m["serve.read_p99_us"] = usOf(quantile(b.readLat, 0.99))
	b.samples["serve.read_p99_us"] = len(b.readLat)
}
