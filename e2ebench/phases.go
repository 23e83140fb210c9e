package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"graphkeys"
	"graphkeys/internal/serve"
)

// phaseRounds is how many rounds the rounds phase is cut into. Each
// round times one restart, so restart_s is the median of phaseRounds
// restarts.
const phaseRounds = 5

// setupRounds is how many of the rounds also time a set-up, so setup_s
// is the median of setupRounds+1 set-ups: the live server's and one in
// each of the first setupRounds rounds.
const setupRounds = 3

// The writes of the rounds phase are sized to take this share of the
// run's seconds at the workload's writeRate; the mixed phase runs for
// the rest.
const writeShare = 0.5

// writeWindow is the window write_dps is measured over: the median of
// the per-window rates. Windows this short hold a few requests of
// chains and a part of one request of bigclass, so a stall of a few
// requests, which the host's stolen CPU time causes, moves few windows
// and not the median. Half-second windows held about sixty chains
// requests each, and a few stalled requests moved every window's rate.
const writeWindow = 100 * time.Millisecond

// readWindow is the shortest window serve.read_qps is measured over.
const readWindow = 500 * time.Millisecond

// bench runs the phase script over one workload and collects what the
// run reports.
type bench struct {
	w       *workload
	seconds float64
	trace   bool
	root    string // work directory, removed by the caller
	opts    graphkeys.Options
	nproc   int
	client  *http.Client

	failures []string
	ops      map[string]*opCount
	// m holds the metrics measured by the run, keyed by name.
	m       map[string]float64
	samples map[string]int
	info    map[string]float64
	// raw keeps the repetitions behind each median.
	raw map[string][]float64
	// alloc is the bytes allocated inside the spans alloc_mb counts.
	alloc uint64

	// Layer measurements collected along the phase script.
	loadS, snapshotS, openS []float64
	postings                int64
	snapshotBytes           int64
	write, mixed            regDiff
	walGrowth               int64
	readLat                 []time.Duration

	// srv is the live serving instance: the first set-up's, which takes
	// every write of the run.
	srv *live
}

type opCount struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// live is one serving instance: a durable matcher behind serve.Server
// on a loopback listener.
type live struct {
	m      *graphkeys.Matcher
	srv    *serve.Server
	hs     *http.Server
	base   string
	served chan struct{}
}

func newBench(w *workload, seconds float64, trace bool, root string) *bench {
	nproc := runtime.NumCPU()
	return &bench{
		w:       w,
		seconds: seconds,
		trace:   trace,
		root:    root,
		nproc:   nproc,
		opts:    graphkeys.Options{Parallelism: nproc, Durability: graphkeys.DurabilityFsync},
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc},
		},
		ops: map[string]*opCount{
			"read": {}, "write": {}, "match": {}, "restart": {},
		},
		m:       make(map[string]float64),
		samples: make(map[string]int),
		info:    make(map[string]float64),
		raw:     make(map[string][]float64),
	}
}

func (b *bench) fail(format string, args ...any) {
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
}

// run executes the phase script. An error means the run could not be
// measured at all; wrong answers are recorded as failures instead.
//
// Everything alloc_mb, disk_mb, restart_s and peak_rss_mb measure is a
// fixed amount of work, done before the mixed phase, which runs for a
// fixed time: a faster program completes more writes in it, and must
// not be charged for the bytes and the log they leave behind.
func (b *bench) run() error {
	defer b.client.CloseIdleConnections()
	ks, err := graphkeys.ParseKeys(b.w.keysText)
	if err != nil {
		return fmt.Errorf("keys: %w", err)
	}
	defer func() {
		if b.srv != nil {
			if err := b.stopSrv(); err != nil {
				b.fail("final shutdown: %v", err)
			}
		}
	}()
	dir := filepath.Join(b.root, "live")
	crash := filepath.Join(b.root, "crash")
	var g *graphkeys.Graph
	if b.srv, g, err = b.boot(dir); err != nil {
		return err
	}
	loaded := b.w.model.classes()
	rec, err := b.loggedPhase(dir, crash)
	if err != nil {
		return err
	}
	if err := b.roundsPhase(g, ks, loaded, crash, rec, dir); err != nil {
		return err
	}
	b.m["alloc_mb"] = float64(b.alloc) / 1e6
	b.m["peak_rss_mb"] = peakRSSMB()
	b.mixedPhase()
	finalText, final, err := b.finalChecks(ks, dir)
	if err != nil {
		return err
	}
	if b.trace {
		return b.traceLayers(crash, finalText, final)
	}
	return nil
}

// stopSrv shuts the serving instance down and drops it, so that the
// collector can take its matcher.
func (b *bench) stopSrv() error {
	err := b.srv.stop()
	b.srv = nil
	b.client.CloseIdleConnections()
	return err
}

// countAlloc starts a span of work that alloc_mb counts; the returned
// func ends it.
func (b *bench) countAlloc() func() {
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	return func() {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		b.alloc += ms1.TotalAlloc - ms0.TotalAlloc
	}
}

// boot is emserve's first boot on the empty directory dir: LoadGraph,
// ParseKeys, OpenMatcher, one seed Apply, the first Snapshot, then
// serve.New on loopback. Generation is excluded: the clock starts at
// LoadGraph. It adds the boot's time to setup_s's samples and returns
// the serving instance and the loaded graph.
func (b *bench) boot(dir string) (*live, *graphkeys.Graph, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	runtime.GC()
	t0 := time.Now()
	g, err := graphkeys.LoadGraph(strings.NewReader(b.w.graphText))
	if err != nil {
		return nil, nil, fmt.Errorf("setup: load graph: %w", err)
	}
	b.loadS = append(b.loadS, time.Since(t0).Seconds())
	ks, err := graphkeys.ParseKeys(b.w.keysText)
	if err != nil {
		return nil, nil, fmt.Errorf("setup: keys: %w", err)
	}
	m, err := graphkeys.OpenMatcher(dir, ks, b.opts)
	if err != nil {
		return nil, nil, fmt.Errorf("setup: open: %w", err)
	}
	seed := graphkeys.NewDelta()
	g.EachEntity(func(id graphkeys.EntityID, typeName string) { seed.AddEntity(id, typeName) })
	g.EachTriple(func(s graphkeys.EntityID, p, o string, isValue bool) {
		if isValue {
			seed.AddValueTriple(s, p, o)
		} else {
			seed.AddEntityTriple(s, p, o)
		}
	})
	before := m.Metrics()
	if _, _, err := m.Apply(seed); err != nil {
		return nil, nil, errors.Join(fmt.Errorf("setup: seed apply: %w", err), m.Close())
	}
	b.postings = m.Metrics().Counters["match.postings_scanned"] - before.Counters["match.postings_scanned"]
	ts := time.Now()
	if err := m.Snapshot(); err != nil {
		return nil, nil, errors.Join(fmt.Errorf("setup: snapshot: %w", err), m.Close())
	}
	b.snapshotS = append(b.snapshotS, time.Since(ts).Seconds())
	l, err := startLive(m)
	if err != nil {
		return nil, nil, errors.Join(err, m.Close())
	}
	b.sample("setup_s", t0)
	if st, err := os.Stat(filepath.Join(dir, "snapshot")); err == nil {
		b.snapshotBytes = st.Size()
	}
	return l, g, nil
}

// roundsPhase runs the batch Match repetitions, the timed restarts and
// the closed-loop writes interleaved, in phaseRounds rounds. Each round
// runs its share of the Match repetitions on the graph loaded at
// set-up, then one restart from the crash image, then its share of the
// writes to the live server in dir. Spread over the whole phase this
// way, no measurement falls wholly into a stretch in which the host
// takes CPU time away.
//
// Match runs with the sequential and the parallel chase, seqReps and
// parReps times, interleaved; both must return want, the partition of
// the loaded graph (Church–Rosser). The writes are one connection
// sending POST /apply?wait=1: each acknowledgement means the write is
// fsynced, repaired and visible. Their number is fixed, so every run
// writes into the same sequence of graph states, whatever its speed.
func (b *bench) roundsPhase(g *graphkeys.Graph, ks *graphkeys.KeySet, want [][]string, crash string, rec recovery, dir string) error {
	logPath := filepath.Join(dir, "wal.log")
	log0, err := fileSize(logPath)
	if err != nil {
		return err
	}
	before := b.srv.m.Metrics()
	writes := max(1, int(math.Round(b.seconds*writeShare*b.w.writeRate)))
	setupDir := filepath.Join(b.root, "setup")
	restartDir := filepath.Join(b.root, "restart")
	var done []span
	var clock time.Duration // time spent writing so far
	deltas := 0
	for r := 0; r < phaseRounds; r++ {
		ns, np := share(b.w.seqReps, r), share(b.w.parReps, r)
		for i := 0; i < max(ns, np); i++ {
			if i < ns {
				b.timeMatch("match_s", g, ks, graphkeys.Options{Engine: graphkeys.Chase}, want)
			}
			if i < np {
				b.timeMatch("match_par_s", g, ks, graphkeys.Options{Engine: graphkeys.ParallelChase, Parallelism: b.nproc}, want)
			}
		}

		if r < setupRounds {
			l, _, err := b.boot(setupDir)
			if err != nil {
				return err
			}
			if err := l.stop(); err != nil {
				return fmt.Errorf("setup: shutdown: %w", err)
			}
		}

		if err := b.restart(fmt.Sprintf("restart %d", r), crash, restartDir, rec); err != nil {
			return err
		}

		// The requests are generated and encoded before the clock
		// starts, and the model learns of them after it stops, so that
		// the timed loop holds only the requests.
		slice := make([]write, share(writes, r))
		bodies := make([][]byte, len(slice))
		for i := range slice {
			slice[i] = b.w.next()
			if bodies[i], err = encodeWrite(slice[i]); err != nil {
				return err
			}
		}
		acked := make([]bool, len(slice))
		runtime.GC()
		start := time.Now()
		for i, body := range bodies {
			t0 := clock + time.Since(start)
			if acked[i] = b.post(body); acked[i] {
				done = append(done, span{t0, clock + time.Since(start), float64(len(slice[i].deltas))})
				deltas += len(slice[i].deltas)
			}
		}
		clock += time.Since(start)
		for i, wr := range slice {
			if acked[i] {
				wr.apply(b.w)
			}
		}
	}
	for _, name := range []string{"setup_s", "match_s", "match_par_s", "restart_s"} {
		b.m[name] = median(b.raw[name])
	}

	b.write = regDiff{before: before, after: b.srv.m.Metrics(), deltas: deltas}
	log1, err := fileSize(logPath)
	if err != nil {
		return err
	}
	b.walGrowth = log1 - log0
	b.m["write_p50_ms"] = msOf(quantile(latencies(done), 0.5))
	b.samples["write_p50_ms"] = len(done)
	rates := windowRates(done, clock, writeWindow)
	b.m["write_dps"], b.raw["write_dps"] = median(rates), rates
	b.info["write_dps_overall"] = float64(deltas) / clock.Seconds()
	b.samples["write_deltas"] = deltas
	return nil
}

// share is round r's part of n repetitions spread evenly over
// phaseRounds rounds.
func share(n, r int) int {
	return (r+1)*n/phaseRounds - r*n/phaseRounds
}

// timeMatch times one Match as a sample of the metric name and checks
// its partition; a failed call gives no sample.
func (b *bench) timeMatch(name string, g *graphkeys.Graph, ks *graphkeys.KeySet, opts graphkeys.Options, want [][]string) {
	b.ops["match"].Attempted++
	runtime.GC()
	done := b.countAlloc()
	t0 := time.Now()
	res, err := graphkeys.Match(g, ks, opts)
	d := time.Since(t0).Seconds()
	done()
	if err != nil {
		b.ops["match"].Failed++
		b.fail("batch: %v: %v", opts.Engine, err)
		return
	}
	b.raw[name] = append(b.raw[name], d)
	if diff := sameClasses(want, res.Classes); diff != "" {
		b.fail("batch: %v on the loaded graph: %s", opts.Engine, diff)
	}
}

// sample adds the time since t0 to the samples of the metric name.
func (b *bench) sample(name string, t0 time.Time) {
	b.raw[name] = append(b.raw[name], time.Since(t0).Seconds())
}

// loggedPhase sends the workload's fixed number of closed-loop
// POST /apply?wait=1 writes and then copies the matcher's directory to
// crash, as a crash right after the last acknowledgement would leave
// it: the set-up snapshot plus a log of exactly these writes. disk_mb
// is that image's size. It returns what a recovery from the image must
// reproduce.
func (b *bench) loggedPhase(dir, crash string) (recovery, error) {
	writes := make([]write, b.w.logWrites)
	bodies := make([][]byte, len(writes))
	for i := range writes {
		writes[i] = b.w.next()
		body, err := encodeWrite(writes[i])
		if err != nil {
			return recovery{}, err
		}
		bodies[i] = body
	}
	acked := make([]bool, len(writes))
	runtime.GC()
	done := b.countAlloc()
	t0 := time.Now()
	for i, body := range bodies {
		acked[i] = b.post(body)
	}
	b.info["logged_writes_s"] = time.Since(t0).Seconds()
	done()
	for i, wr := range writes {
		if acked[i] {
			wr.apply(b.w)
		}
	}

	if err := copyDir(dir, crash); err != nil {
		return recovery{}, err
	}
	disk, err := dirBytes(crash)
	if err != nil {
		return recovery{}, err
	}
	b.m["disk_mb"] = float64(disk) / 1e6

	m := b.srv.m
	rec := recovery{classes: m.Result().Classes, added: slices.Clone(b.w.added)}
	if diff := sameClasses(b.w.model.classes(), rec.classes); diff != "" {
		b.fail("after the logged writes: matcher vs model: %s", diff)
	}
	var text strings.Builder
	if err := m.Graph().Write(&text); err != nil {
		return recovery{}, err
	}
	rec.text = text.String()
	return rec, nil
}

// recovery is what a matcher recovered from a crash image must hold:
// the partition and the graph, in text form, of the matcher the image
// was taken from, and every entity acknowledged writes added to it.
type recovery struct {
	classes [][]string
	text    string
	added   []string
}

// restart times one emserve recovery from the crash image: it copies
// the image to dir and runs from ParseKeys + OpenMatcher — which
// replays the logged writes — to the first correct point read over
// HTTP, a sample of restart_s, then checks the recovered matcher
// against rec and shuts it down. A failed first read gives no sample.
func (b *bench) restart(what, crash, dir string, rec recovery) error {
	if err := copyDir(crash, dir); err != nil {
		return err
	}
	b.ops["restart"].Attempted++
	runtime.GC()
	done := b.countAlloc()
	t0 := time.Now()
	ks, err := graphkeys.ParseKeys(b.w.keysText)
	if err != nil {
		return err
	}
	m, err := graphkeys.OpenMatcher(dir, ks, b.opts)
	if err != nil {
		return fmt.Errorf("%s: open: %w", what, err)
	}
	b.openS = append(b.openS, time.Since(t0).Seconds())
	l, err := startLive(m)
	if err != nil {
		return errors.Join(err, m.Close())
	}
	ok, wrong := b.pointRead(l, b.w.pairReads()[0])
	if ok && wrong == "" {
		b.sample("restart_s", t0)
	}
	done()
	err = b.checkRecovered(what, m, rec)
	if serr := l.stop(); serr != nil && err == nil {
		err = fmt.Errorf("%s: shutdown: %w", what, serr)
	}
	if !ok || wrong != "" {
		b.ops["restart"].Failed++
		b.fail("%s: first read failed: %s", what, wrong)
	}
	return err
}

// checkRecovered compares a recovered matcher with what it must
// reproduce.
func (b *bench) checkRecovered(what string, m *graphkeys.Matcher, rec recovery) error {
	if diff := sameClasses(rec.classes, m.Result().Classes); diff != "" {
		b.fail("%s: recovered partition: %s", what, diff)
	}
	var text strings.Builder
	if err := m.Graph().Write(&text); err != nil {
		return err
	}
	if text.String() != rec.text {
		b.fail("%s: recovered graph differs from the graph before the crash", what)
	}
	for _, e := range rec.added {
		if _, ok := m.Graph().HasEntity(e); !ok {
			b.fail("%s: acknowledged entity %s is missing", what, e)
			break
		}
	}
	return nil
}

// encodeWrite is the /apply request body of one write.
func encodeWrite(wr write) ([]byte, error) {
	var req serve.ApplyRequest
	req.Deltas = make([]struct {
		Ops []serve.Op `json:"ops"`
	}, len(wr.deltas))
	for i, ops := range wr.deltas {
		req.Deltas[i].Ops = ops
	}
	return json.Marshal(req)
}

// apply sends one write and, once acknowledged, applies it to the
// model.
func (b *bench) apply(wr write) bool {
	body, err := encodeWrite(wr)
	if err != nil {
		b.ops["write"].Attempted++
		b.ops["write"].Failed++
		return false
	}
	if !b.post(body) {
		return false
	}
	wr.apply(b.w)
	return true
}

// post sends one /apply?wait=1 request. Any status other than 2xx is a
// failed write.
func (b *bench) post(body []byte) bool {
	b.ops["write"].Attempted++
	resp, err := b.client.Post(b.srv.base+"/apply?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		b.ops["write"].Failed++
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		b.ops["write"].Failed++
		return false
	}
	return true
}

// mixedPhase runs one closed-loop reader of /same and /entity point
// reads beside one open-loop writer sending /apply at the workload's
// rate. Writes are timed from when they were due.
func (b *bench) mixedPhase() {
	dur := time.Duration(b.seconds * (1 - writeShare) * float64(time.Second))
	before := b.srv.m.Metrics()
	runtime.GC()
	start := time.Now()
	deadline := start.Add(dur)

	type readerOut struct {
		done     []span
		failed   int
		wrong    []string
		elapsed  float64
		attempts int
	}
	outc := make(chan readerOut, 1)
	go func() {
		var o readerOut
		rng := rand.New(rand.NewSource(int64(len(b.w.reads))))
		for time.Now().Before(deadline) {
			r := b.w.reads[rng.Intn(len(b.w.reads))]
			o.attempts++
			t0 := time.Since(start)
			ok, wrong := b.pointRead(b.srv, r)
			if !ok {
				o.failed++
				continue
			}
			o.done = append(o.done, span{t0, time.Since(start), 1})
			if wrong != "" && len(o.wrong) < 5 {
				o.wrong = append(o.wrong, wrong)
			}
		}
		o.elapsed = time.Since(start).Seconds()
		outc <- o
	}()

	var wlats, late []time.Duration
	interval := time.Duration(float64(time.Second) / b.w.rate)
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(deadline) {
			break
		}
		time.Sleep(time.Until(due))
		late = append(late, time.Since(due))
		if b.apply(b.w.next()) {
			wlats = append(wlats, time.Since(due))
		}
	}
	o := <-outc
	b.mixed = regDiff{before: before, after: b.srv.m.Metrics()}
	b.ops["read"].Attempted += o.attempts
	b.ops["read"].Failed += o.failed
	for _, s := range o.wrong {
		b.fail("mixed phase read: %s", s)
	}
	b.readLat = latencies(o.done)
	b.m["read_p50_us"] = usOf(quantile(b.readLat, 0.5))
	b.samples["read_p50_us"] = len(o.done)
	// Windows span whole periods of the writer, so that each holds the
	// same share of write-lock time.
	periods := math.Ceil(readWindow.Seconds() * b.w.rate)
	b.m["serve.read_qps"] = median(windowRates(o.done, dur, time.Duration(periods/b.w.rate*float64(time.Second))))
	b.info["read_qps_overall"] = float64(len(o.done)) / o.elapsed
	b.info["mixed_write_p50_ms"] = msOf(quantile(wlats, 0.5))
	b.samples["mixed_writes"] = len(wlats)
	b.info["writer_lateness_p50_ms"] = msOf(quantile(late, 0.5))
	b.info["writer_lateness_max_ms"] = msOf(quantile(late, 1))
}

// pointRead sends one read to l. ok is false when the request failed;
// wrong describes an answer that disagrees with the model.
func (b *bench) pointRead(l *live, r read) (ok bool, wrong string) {
	u := l.base
	if r.b != "" {
		u += "/same?a=" + url.QueryEscape(r.a) + "&b=" + url.QueryEscape(r.b)
	} else {
		u += "/entity?id=" + url.QueryEscape(r.a)
	}
	resp, err := b.client.Get(u)
	if err != nil {
		return false, ""
	}
	defer resp.Body.Close()
	var out struct {
		Same      bool   `json:"same"`
		Canonical string `json:"canonical"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	if resp.StatusCode/100 != 2 || err != nil {
		return false, ""
	}
	if r.b != "" && out.Same != r.same {
		return true, fmt.Sprintf("/same %s %s = %v, want %v", r.a, r.b, out.Same, r.same)
	}
	if r.b == "" && !r.class[out.Canonical] {
		return true, fmt.Sprintf("/entity %s = %s, not in its class", r.a, out.Canonical)
	}
	return true, ""
}

// finalChecks compares the maintained fixpoint with the model and with
// a fresh Match of the final graph. It then checks that every write
// acknowledged so far survives a crash: it copies the server's
// directory, stops the server, and recovers a matcher from the copy.
// It returns the final graph text and the recovered matcher, closed
// but readable (nil when the recovery failed).
func (b *bench) finalChecks(ks *graphkeys.KeySet, dir string) (string, *graphkeys.Matcher, error) {
	m := b.srv.m
	got := m.Result().Classes
	if diff := sameClasses(b.w.model.classes(), got); diff != "" {
		b.fail("after writes: matcher vs model: %s", diff)
	}
	b.ops["match"].Attempted++
	fresh, err := graphkeys.Match(m.Graph(), ks, graphkeys.Options{})
	if err != nil {
		b.ops["match"].Failed++
		b.fail("after writes: Match of the final graph: %v", err)
	} else if diff := sameClasses(fresh.Classes, got); diff != "" {
		b.fail("after writes: matcher vs fresh Match: %s", diff)
	}
	var text strings.Builder
	if err := m.Graph().Write(&text); err != nil {
		return "", nil, err
	}

	img := filepath.Join(b.root, "final")
	if err := copyDir(dir, img); err != nil {
		return "", nil, err
	}
	if err := b.stopSrv(); err != nil {
		return "", nil, fmt.Errorf("final shutdown: %w", err)
	}
	b.ops["restart"].Attempted++
	rec, err := graphkeys.OpenMatcher(img, ks, b.opts)
	if err != nil {
		b.ops["restart"].Failed++
		b.fail("final recovery: open: %v", err)
		return text.String(), nil, nil
	}
	// A bare matcher closes its log without a snapshot.
	return text.String(), rec, errors.Join(b.checkRecovered("final recovery", rec, recovery{classes: got, text: text.String(), added: b.w.added}), rec.Close())
}

func startLive(m *graphkeys.Matcher) (*live, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := serve.New(m, serve.Options{})
	l := &live{m: m, srv: srv, hs: &http.Server{Handler: srv}, base: "http://" + ln.Addr().String(), served: make(chan struct{})}
	go func() {
		defer close(l.served)
		_ = l.hs.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	return l, nil
}

// stop shuts down in emserve's order: the serving layer first (drain
// the writer, snapshot, close the log), then the HTTP server, whose
// goroutine it waits for.
func (l *live) stop() error {
	err := l.srv.Close()
	if cerr := l.hs.Close(); cerr != nil && err == nil {
		err = cerr
	}
	<-l.served
	return err
}

// copyDir replaces dst with a copy of the regular files of the matcher
// directory src, leaving out its lock file. Taken while no write is in
// flight, the copy is what a crash at that moment leaves on disk.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() || e.Name() == "wal.lock" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// peakRSSMB reads the process's peak resident set (VmHWM) from
// /proc/self/status, falling back to the memory the Go runtime
// obtained from the OS where that file does not exist.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
				return kb / 1e3
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}
