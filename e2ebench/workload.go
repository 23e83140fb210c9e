package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"graphkeys/internal/gen"
	"graphkeys/internal/graph"
	"graphkeys/internal/serve"
)

// A workload is one generated input plus the traffic the phase script
// sends against it. Every workload keeps its own model of the expected
// partition, built from how the input was generated and updated as
// writes are acknowledged, never from the program's answers.
type workload struct {
	graphText string
	keysText  string
	// model maps an entity ID to its expected class label; entities
	// absent from it are expected to be singletons.
	model partition
	// next returns the next /apply request. Its apply func updates the
	// model once the request has been acknowledged.
	next func() write
	// reads are point-read targets the writes never touch, so their
	// expected answers hold for the whole run.
	reads []read
	// added lists entities created by acknowledged writes; each must
	// exist after restart.
	added []string
	// rate is the open-loop writer's rate in the mixed phase, in
	// requests per second.
	rate float64
	// writeRate sizes the writes of the rounds phase: writeRate
	// requests per second of their share of --seconds.
	writeRate float64
	// seqReps and parReps are how many times the rounds phase runs
	// Match with the sequential and the parallel chase.
	seqReps, parReps int
	// logWrites is the number of writes in the log a restart replays.
	logWrites int
}

type write struct {
	deltas [][]serve.Op
	apply  func(w *workload)
}

// read is one point read: a /same pair with its expected answer, or an
// /entity lookup (b empty) whose canonical must be a member of a's
// expected class.
type read struct {
	a, b string
	same bool
	// class holds the acceptable canonicals of an /entity read.
	class map[string]bool
}

// pairReads returns the workload's /same reads. Every workload has
// some.
func (w *workload) pairReads() []read {
	var out []read
	for _, r := range w.reads {
		if r.b != "" {
			out = append(out, r)
		}
	}
	return out
}

// partition is the model of chase(G, Σ): entity ID → class label.
type partition map[string]string

// classes lists the classes of two or more members, each sorted, in
// the order graphkeys.Result.Classes uses (by first member).
func (p partition) classes() [][]string {
	byLabel := make(map[string][]string)
	for e, c := range p {
		byLabel[c] = append(byLabel[c], e)
	}
	out := make([][]string, 0, len(byLabel))
	for _, members := range byLabel {
		if len(members) >= 2 {
			out = append(out, members)
		}
	}
	for _, c := range out {
		sort.Strings(c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// sameClasses reports where two partitions, given as sorted class
// lists, first differ ("" when they are equal).
func sameClasses(want, got [][]string) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d classes, want %d", len(got), len(want))
	}
	for i := range want {
		if strings.Join(want[i], ",") != strings.Join(got[i], ",") {
			return fmt.Sprintf("class %d is %v, want %v", i, abbrev(got[i]), abbrev(want[i]))
		}
	}
	return ""
}

func abbrev(c []string) string {
	if len(c) > 4 {
		return fmt.Sprintf("%v… (%d members)", c[:4], len(c))
	}
	return fmt.Sprint(c)
}

// classSets turns the model's classes into read-only membership sets,
// one shared set per class, for /entity checks.
func (p partition) classSets() map[string]map[string]bool {
	sets := make(map[string]map[string]bool)
	for e, c := range p {
		if sets[c] == nil {
			sets[c] = make(map[string]bool)
		}
		sets[c][e] = true
	}
	return sets
}

// entityRead builds an /entity read for e under the current model.
func (p partition) entityRead(sets map[string]map[string]bool, e string) read {
	if c, ok := p[e]; ok {
		return read{a: e, class: sets[c]}
	}
	return read{a: e, class: map[string]bool{e: true}}
}

func (p partition) sameRead(a, b string) read {
	ca, okA := p[a]
	cb, okB := p[b]
	return read{a: a, b: b, same: a == b || (okA && okB && ca == cb)}
}

func addEntity(id, typ string) serve.Op { return serve.Op{Op: "add_entity", ID: id, Type: typ} }
func addValue(s, p, v string) serve.Op  { return serve.Op{Op: "add_value", S: s, P: p, V: v} }
func removeValue(s, p, v string) serve.Op {
	return serve.Op{Op: "remove_value", S: s, P: p, V: v}
}

func valueLine(b *strings.Builder, id, typ, pred, v string) {
	fmt.Fprintf(b, "%s:%s\t%s\t%s\n", id, typ, pred, strconv.Quote(v))
}

// sizes scales a workload.
type sizes struct {
	// bigclass
	classes, members, loners int
	// chains
	groups, perType int
	// ingest
	people, batch int
	// shared: the mixed phase's write rate; the closed-loop write
	// rate the rounds phase's writes are sized for, about what the
	// program achieved when the benchmark was written; the Match
	// repetitions, chosen so that each Match engine runs for a few
	// seconds in all; the writes logged before the restarts, a whole
	// number of the workload's write cycles
	rate, writeRate  float64
	seqReps, parReps int
	logWrites        int
}

var fullSizes = map[string]sizes{
	"bigclass": {classes: 10, members: 400, loners: 2000, rate: 1, writeRate: 10, seqReps: 7, parReps: 3, logWrites: 12},
	"chains":   {groups: 4, perType: 1000, rate: 10, writeRate: 120, seqReps: 4, parReps: 4, logWrites: 100},
	"ingest":   {people: 20000, batch: 32, rate: 5, writeRate: 60, seqReps: 25, parReps: 35, logWrites: 100},
}

func newWorkload(name string, seed int64, sz sizes) (*workload, error) {
	var w *workload
	var err error
	switch name {
	case "bigclass":
		w = bigclass(seed, sz)
	case "chains":
		w, err = chains(seed, sz)
	case "ingest":
		w = ingest(seed, sz)
	default:
		return nil, fmt.Errorf("unknown workload %q (want bigclass, chains or ingest)", name)
	}
	if err != nil {
		return nil, err
	}
	w.rate, w.writeRate, w.seqReps, w.parReps, w.logWrites = sz.rate, sz.writeRate, sz.seqReps, sz.parReps, sz.logWrites
	return w, nil
}

// bigclass: sz.classes classes of sz.members items each, identified by
// a radius-1 key with two value anchors, plus sz.loners singleton
// items, half of which share the first anchor with a class (candidate
// joins that the second anchor rejects). Writes cycle through three
// kinds: a loner joins a class by taking its anchors, the same loner
// leaves again, and a new item that touches no class is added. Writes
// use the first half of the classes and loners; reads the second half.
func bigclass(seed int64, sz sizes) *workload {
	rng := rand.New(rand.NewSource(seed))
	n := sz.classes*sz.members + sz.loners
	perm := rng.Perm(n)
	id := func(i int) string { return fmt.Sprintf("i%06d", perm[i]) }
	salt := rng.Intn(1_000_000)
	classA := func(k int) string { return fmt.Sprintf("a%d_%d", k, salt) }
	classB := func(k int) string { return fmt.Sprintf("b%d_%d", k, salt) }
	label := func(k int) string { return classA(k) + "|" + classB(k) }

	w := &workload{
		keysText: "key B for item {\n  x -a-> u*\n  x -b-> w*\n}\n",
		model:    make(partition),
	}
	var b strings.Builder
	for k := 0; k < sz.classes; k++ {
		for i := 0; i < sz.members; i++ {
			e := id(k*sz.members + i)
			valueLine(&b, e, "item", "a", classA(k))
			valueLine(&b, e, "item", "b", classB(k))
			w.model[e] = label(k)
		}
	}
	loners := make([]string, sz.loners)
	lonerA := make([]string, sz.loners)
	lonerB := make([]string, sz.loners)
	for j := range loners {
		loners[j] = id(sz.classes*sz.members + j)
		lonerA[j] = fmt.Sprintf("la%d_%d", j, salt)
		if j%2 == 1 {
			// Spread evenly over the classes, not drawn from the seed, so
			// that the writes, which move these items, cost the same
			// under every seed.
			lonerA[j] = classA(j / 2 % sz.classes)
		}
		lonerB[j] = fmt.Sprintf("lb%d_%d", j, salt)
		valueLine(&b, loners[j], "item", "a", lonerA[j])
		valueLine(&b, loners[j], "item", "b", lonerB[j])
	}
	w.graphText = b.String()

	writeClasses := sz.classes / 2
	joiners := sz.loners / 2
	t := 0
	w.next = func() write {
		round, kind := t/3, t%3
		t++
		j := round % joiners
		x, k := loners[j], round%writeClasses
		switch kind {
		case 0: // join class k
			return write{
				deltas: [][]serve.Op{{
					removeValue(x, "a", lonerA[j]), removeValue(x, "b", lonerB[j]),
					addValue(x, "a", classA(k)), addValue(x, "b", classB(k)),
				}},
				apply: func(w *workload) { w.model[x] = label(k) },
			}
		case 1: // leave it again
			return write{
				deltas: [][]serve.Op{{
					removeValue(x, "a", classA(k)), removeValue(x, "b", classB(k)),
					addValue(x, "a", lonerA[j]), addValue(x, "b", lonerB[j]),
				}},
				apply: func(w *workload) { delete(w.model, x) },
			}
		default: // a new item touching no class
			e := fmt.Sprintf("n%06d", round)
			return write{
				deltas: [][]serve.Op{{
					addEntity(e, "item"),
					addValue(e, "a", fmt.Sprintf("na%d_%d", round, salt)),
					addValue(e, "b", fmt.Sprintf("nb%d_%d", round, salt)),
				}},
				apply: func(w *workload) { w.added = append(w.added, e) },
			}
		}
	}

	sets := w.model.classSets()
	member := func(k int) string { return id(k*sz.members + rng.Intn(sz.members)) }
	for r := 0; r < 256; r++ {
		k := writeClasses + rng.Intn(sz.classes-writeClasses)
		lon := loners[joiners+rng.Intn(sz.loners-joiners)]
		switch r % 4 {
		case 0:
			w.reads = append(w.reads, w.model.sameRead(member(k), member(k)))
		case 1:
			w.reads = append(w.reads, w.model.sameRead(member(k), lon))
		case 2:
			w.reads = append(w.reads, w.model.entityRead(sets, member(k)))
		default:
			w.reads = append(w.reads, w.model.entityRead(sets, lon))
		}
	}
	return w
}

// chains: the paper's synthetic generator with recursive keys (chain
// c = 3, radius d = 2), planted duplicates, near misses and noise.
// Writes break a planted level-0 duplicate by changing the value one
// partner reaches at distance 2, and the next write restores it; each
// break un-identifies the planted pair at every level of its chain and
// each restore re-identifies them. Writes use the first half of each
// group's planted pairs, reads the second half and unplanted entities.
func chains(seed int64, sz sizes) (*workload, error) {
	cfg := gen.DefaultSynthetic()
	cfg.Seed = seed
	cfg.TypeGroups = sz.groups
	cfg.EntitiesPerType = sz.perType
	cfg.Chain = 3
	cfg.Radius = 2
	syn, err := gen.Synthetic(cfg)
	if err != nil {
		return nil, err
	}
	g := syn.Graph
	var b strings.Builder
	if err := g.WriteText(&b); err != nil {
		return nil, err
	}
	w := &workload{
		graphText: b.String(),
		keysText:  syn.Keys.Format(),
		model:     make(partition),
	}
	for _, pr := range syn.Expected {
		a, bb := g.Label(graph.NodeID(pr.A)), g.Label(graph.NodeID(pr.B))
		w.model[a], w.model[bb] = a, a
	}
	// The generator plants pair j of every level as entities 2j and
	// 2j+1, and level l's pair j points at level l-1's pair j.
	nDup := int(float64(cfg.EntitiesPerType) * cfg.DupFraction / 2)
	ent := func(grp, lvl, i int) string { return fmt.Sprintf("T%03d_%d_e%d", grp, lvl, i) }

	type target struct {
		grp, j   int
		aux      string
		pred, dv string
	}
	var targets []target
	for grp := 0; grp < cfg.TypeGroups; grp++ {
		for j := 0; j < nDup/2; j++ {
			aux := ent(grp, 0, 2*j+1) + "_a0"
			n, ok := g.Entity(aux)
			if !ok || len(g.Out(n)) != 1 {
				return nil, fmt.Errorf("chains: generator layout changed: %s", aux)
			}
			e := g.Out(n)[0]
			targets = append(targets, target{grp, j, aux, g.PredName(e.Pred), g.Label(e.To)})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	t := 0
	w.next = func() write {
		tg := targets[(t/2)%len(targets)]
		broken := fmt.Sprintf("%s_brk", tg.dv)
		restore := t%2 == 1
		t++
		if restore {
			return write{
				deltas: [][]serve.Op{{removeValue(tg.aux, tg.pred, broken), addValue(tg.aux, tg.pred, tg.dv)}},
				apply: func(w *workload) {
					for lvl := 0; lvl <= cfg.Chain; lvl++ {
						a := ent(tg.grp, lvl, 2*tg.j)
						w.model[a], w.model[ent(tg.grp, lvl, 2*tg.j+1)] = a, a
					}
				},
			}
		}
		return write{
			deltas: [][]serve.Op{{removeValue(tg.aux, tg.pred, tg.dv), addValue(tg.aux, tg.pred, broken)}},
			apply: func(w *workload) {
				for lvl := 0; lvl <= cfg.Chain; lvl++ {
					delete(w.model, ent(tg.grp, lvl, 2*tg.j))
					delete(w.model, ent(tg.grp, lvl, 2*tg.j+1))
				}
			},
		}
	}

	sets := w.model.classSets()
	for r := 0; r < 256; r++ {
		grp, lvl := rng.Intn(cfg.TypeGroups), rng.Intn(cfg.Chain+1)
		j := nDup/2 + rng.Intn(nDup-nDup/2)
		other := ent(grp, lvl, 2*nDup+rng.Intn(cfg.EntitiesPerType-2*nDup))
		switch r % 4 {
		case 0:
			w.reads = append(w.reads, w.model.sameRead(ent(grp, lvl, 2*j), ent(grp, lvl, 2*j+1)))
		case 1:
			w.reads = append(w.reads, w.model.sameRead(ent(grp, lvl, 2*j), other))
		case 2:
			w.reads = append(w.reads, w.model.entityRead(sets, ent(grp, lvl, 2*j+1)))
		default:
			w.reads = append(w.reads, w.model.entityRead(sets, other))
		}
	}
	return w, nil
}

// ingest: sz.people persons identified by a radius-1 key on one value
// anchor; a tenth start out in planted duplicate pairs, the rest are
// singletons. Each write is one /apply of sz.batch independent deltas,
// each adding a new person; a quarter of them, chosen by the seed,
// take the email of an existing person. Writes duplicate only persons
// of the first half, reads target the second half.
func ingest(seed int64, sz sizes) *workload {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(sz.people)
	id := func(i int) string { return fmt.Sprintf("p%06d", perm[i]) }
	salt := rng.Intn(1_000_000)
	w := &workload{
		keysText: "key P for person {\n  x -email-> e*\n}\n",
		model:    make(partition),
	}
	emails := make([]string, sz.people)
	var b strings.Builder
	for i := 0; i < sz.people; i++ {
		emails[i] = fmt.Sprintf("m%d_%d@x", i, salt)
		if i%20 == 1 { // planted duplicate of i-1
			emails[i] = emails[i-1]
		}
		valueLine(&b, id(i), "person", "email", emails[i])
		valueLine(&b, id(i), "person", "name", fmt.Sprintf("name%d", rng.Intn(sz.people/4+1)))
		if i%20 == 1 {
			w.model[id(i-1)], w.model[id(i)] = emails[i], emails[i]
		}
	}
	w.graphText = b.String()

	half := sz.people / 2
	next := 0
	w.next = func() write {
		deltas := make([][]serve.Op, sz.batch)
		ids := make([]string, sz.batch)
		mails := make([]string, sz.batch)
		dupOf := make([]string, sz.batch)
		for d := range deltas {
			e := fmt.Sprintf("q%07d", next)
			mail := fmt.Sprintf("q%d_%d@x", next, salt)
			next++
			if rng.Intn(4) == 0 {
				target := rng.Intn(half)
				mail, dupOf[d] = emails[target], id(target)
			}
			ids[d], mails[d] = e, mail
			deltas[d] = []serve.Op{
				addEntity(e, "person"),
				addValue(e, "email", mail),
				addValue(e, "name", fmt.Sprintf("name%d", rng.Intn(sz.people/4+1))),
			}
		}
		return write{deltas: deltas, apply: func(w *workload) {
			for d, e := range ids {
				w.added = append(w.added, e)
				if dupOf[d] != "" {
					w.model[e], w.model[dupOf[d]] = mails[d], mails[d]
				}
			}
		}}
	}

	sets := w.model.classSets()
	readable := func() int { return half + rng.Intn(sz.people-half) }
	for r := 0; r < 256; r++ {
		i := readable()
		switch r % 4 {
		case 0:
			// Planted pairs sit at (20q, 20q+1); pick one in the read half.
			q := (half + 19) / 20
			p := 20 * (q + rng.Intn((sz.people-20*q)/20))
			w.reads = append(w.reads, w.model.sameRead(id(p), id(p+1)))
		case 1:
			w.reads = append(w.reads, w.model.sameRead(id(i), id(readable())))
		case 2:
			w.reads = append(w.reads, w.model.entityRead(sets, id(i)))
		default:
			w.reads = append(w.reads, w.model.entityRead(sets, id(readable())))
		}
	}
	return w
}
