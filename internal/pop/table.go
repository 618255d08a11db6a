// Declarative transition tables: the protocol DSL.
//
// A Table[S] is a population protocol written as data — a map from
// ordered (receiver, sender) state pairs to outputs, in the style of
// ppsim's `{(a,b): (u,u), ...}` dictionaries — with optional randomized
// entries given as weighted output distributions (Choose). CompileRule
// turns a table into an executable Rule[S] plus compile-time metadata the
// engines can exploit:
//
//   - The declared state set, in a canonical order (sorted by each
//     state's JSON encoding, the same order snapshots use), so every
//     compile of the same table yields identical ids.
//
//   - A deterministic-vs-randomized classification per pair. Pairs
//     absent from the table — including any pair touching a state the
//     table never mentions — are null transitions (both agents keep
//     their states), which is itself deterministic.
//
// Passing the compiled table to an engine via WithTable (or
// Compiled.Option) lets the multiset backends resolve declared
// deterministic transitions by direct table lookup, bypassing the
// randomness-counting cache probe entirely: a cold pair costs an array
// read instead of a counted rule invocation, and a declared-deterministic
// table never calls the rule at all. The bypass is exact — it returns
// precisely the states the compiled rule would have returned, interned in
// the same order — so trajectories (and snapshots) are byte-identical
// with and without WithTable.
//
// # Engine integration: why declared states are NOT pre-inserted
//
// The engines intern declared states lazily, exactly when a transition
// first produces them, rather than pre-seeding their counts vectors from
// the declared set. Pre-seeding would change len(counts) and therefore
// the heavy/light switch points of the hypergeometric samplers — which
// consume the engine rng — breaking byte-identity against the same rule
// run without the table. Instead the compile-time interning lives in
// Compiled (canonical table ids) and each engine carries a cheap side-car
// translation (tableView) between its own ids and the table's, rebuilt on
// compaction; the position map is merely pre-sized for the declared set.
package pop

import (
	"fmt"
	"math/rand/v2"
)

// Pair is an ordered (receiver, sender) input of a transition table
// entry.
type Pair[S comparable] struct {
	Rec, Sen S
}

// Branch is one weighted output of a randomized transition: the
// interaction results in (Rec, Sen) with probability W over the sum of
// the entry's weights.
type Branch[S comparable] struct {
	W        int64
	Rec, Sen S
}

// Outcome is the right-hand side of one table entry: a single output
// pair (To) or a weighted distribution over output pairs (Choose).
type Outcome[S comparable] struct {
	branches []Branch[S]
}

// To is the deterministic outcome: the pair maps to (rec, sen) with
// probability 1.
func To[S comparable](rec, sen S) Outcome[S] {
	return Outcome[S]{branches: []Branch[S]{{W: 1, Rec: rec, Sen: sen}}}
}

// Choose is the randomized outcome: the pair maps to one of the branches
// with probability proportional to its weight. Branches with equal
// outputs merge; a distribution that collapses to a single output
// compiles as deterministic.
func Choose[S comparable](branches ...Branch[S]) Outcome[S] {
	return Outcome[S]{branches: branches}
}

// Table is a declarative population protocol: a map from ordered
// (receiver, sender) pairs to outcomes. Pairs absent from the table are
// null transitions — both agents keep their states — so a protocol is
// written as exactly its non-trivial transitions.
type Table[S comparable] map[Pair[S]]Outcome[S]

// tableDenseMaxStates bounds the declared state count for which the
// compiled form is a flat q×q cell matrix (8·q² bytes — 8 MiB at the
// cutoff); larger tables fall back to a sparse cell map holding only
// non-identity entries.
const tableDenseMaxStates = 1024

// randSentinel marks a randomized cell in the dense matrix. It cannot
// collide with a packed output pair: packed ids are bounded by the
// declared state count.
const randSentinel = ^uint64(0)

// cbranch is one compiled randomized branch: cumulative weight and
// packed output ids.
type cbranch struct {
	cum    int64
	oa, ob int32
}

// randCell is one compiled randomized table cell.
type randCell struct {
	total    int64
	branches []cbranch
}

// Compiled is a compiled transition table: an executable rule plus the
// metadata the engines exploit (declared state set in canonical order,
// per-pair deterministic/randomized classification). Compile once and
// share freely — a Compiled is immutable after CompileRule returns and
// safe for concurrent use by independent engines.
type Compiled[S comparable] struct {
	states []S                  // declared states in canonical (JSON-sorted) order
	index  map[S]int32          // state → table id
	q      int32                // len(states)
	det    []uint64             // q×q packed cells (q <= tableDenseMaxStates); randSentinel = randomized
	cells  map[uint64]uint64    // sparse fallback: non-identity deterministic cells
	rcells map[uint64]*randCell // randomized cells (both representations)
}

// CompileRule compiles a declarative transition table into an executable
// rule plus metadata. It errors on an empty table, an entry with no
// branches, or a non-positive branch weight. Distinct declared states
// must have distinct JSON encodings (the canonical order sorts by them),
// which holds for every JSON-marshalable state type whose encoding is
// faithful.
func CompileRule[S comparable](t Table[S]) (*Compiled[S], error) {
	if len(t) == 0 {
		return nil, fmt.Errorf("pop: cannot compile an empty transition table")
	}
	set := make(map[S]struct{}, 4*len(t))
	for p, out := range t {
		set[p.Rec] = struct{}{}
		set[p.Sen] = struct{}{}
		if len(out.branches) == 0 {
			return nil, fmt.Errorf("pop: table entry (%v, %v) has no outputs (build outcomes with To or Choose)", p.Rec, p.Sen)
		}
		for _, br := range out.branches {
			if br.W <= 0 {
				return nil, fmt.Errorf("pop: table entry (%v, %v) has branch weight %d, want > 0", p.Rec, p.Sen, br.W)
			}
			set[br.Rec] = struct{}{}
			set[br.Sen] = struct{}{}
		}
	}
	states, err := sortedStates(set)
	if err != nil {
		return nil, err
	}
	c := &Compiled[S]{
		states: states,
		index:  make(map[S]int32, 2*len(states)),
		q:      int32(len(states)),
		rcells: map[uint64]*randCell{},
	}
	for id, s := range states {
		c.index[s] = int32(id)
	}
	q := int64(c.q)
	if c.q <= tableDenseMaxStates {
		c.det = make([]uint64, q*q)
		for a := int64(0); a < q; a++ {
			for b := int64(0); b < q; b++ {
				c.det[a*q+b] = packCell(int32(a), int32(b))
			}
		}
	} else {
		c.cells = make(map[uint64]uint64, len(t))
	}
	for p, out := range t {
		a, b := c.index[p.Rec], c.index[p.Sen]
		key := cellKey(a, b)
		merged := mergeBranches(c, out.branches)
		if len(merged) == 1 {
			oa, ob := merged[0].oa, merged[0].ob
			if c.det != nil {
				c.det[int64(a)*q+int64(b)] = packCell(oa, ob)
			} else if oa != a || ob != b {
				c.cells[key] = packCell(oa, ob)
			}
			continue
		}
		var total int64
		rc := &randCell{branches: make([]cbranch, 0, len(merged))}
		for _, br := range merged {
			total += br.cum // cum holds the merged weight pre-accumulation
			rc.branches = append(rc.branches, cbranch{cum: total, oa: br.oa, ob: br.ob})
		}
		rc.total = total
		c.rcells[key] = rc
		if c.det != nil {
			c.det[int64(a)*q+int64(b)] = randSentinel
		}
	}
	return c, nil
}

// MustCompile is CompileRule, panicking on error — for package-level
// protocol definitions whose tables are statically well-formed.
func MustCompile[S comparable](t Table[S]) *Compiled[S] {
	c, err := CompileRule(t)
	if err != nil {
		panic(err)
	}
	return c
}

// mergeBranches folds branches with equal outputs into one (summing
// weights), preserving first-appearance order so compilation is
// deterministic. The returned cbranches carry raw merged weights in cum.
func mergeBranches[S comparable](c *Compiled[S], branches []Branch[S]) []cbranch {
	merged := make([]cbranch, 0, len(branches))
	at := make(map[uint64]int, len(branches))
	for _, br := range branches {
		oa, ob := c.index[br.Rec], c.index[br.Sen]
		key := cellKey(oa, ob)
		if i, ok := at[key]; ok {
			merged[i].cum += br.W
			continue
		}
		at[key] = len(merged)
		merged = append(merged, cbranch{cum: br.W, oa: oa, ob: ob})
	}
	return merged
}

func packCell(oa, ob int32) uint64 { return uint64(uint32(oa))<<32 | uint64(uint32(ob)) }

func cellKey(a, b int32) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// cell classifies the ordered table-id pair (a, b): deterministic cells
// return their packed outputs, randomized ones report rnd.
func (c *Compiled[S]) cell(a, b int32) (oa, ob int32, rnd bool) {
	if c.det != nil {
		v := c.det[int64(a)*int64(c.q)+int64(b)]
		if v == randSentinel {
			return 0, 0, true
		}
		return int32(v >> 32), int32(uint32(v)), false
	}
	key := cellKey(a, b)
	if _, ok := c.rcells[key]; ok {
		return 0, 0, true
	}
	if v, ok := c.cells[key]; ok {
		return int32(v >> 32), int32(uint32(v)), false
	}
	return a, b, false
}

// Rule returns the executable form of the table: a Rule[S] evaluating
// table entries (randomized entries draw one word from r, so the
// engines' randomness-counting cache correctly declines to cache them)
// and treating absent pairs — including pairs touching undeclared states
// — as null transitions.
func (c *Compiled[S]) Rule() Rule[S] {
	return func(rec, sen S, r *rand.Rand) (S, S) {
		a, okA := c.index[rec]
		b, okB := c.index[sen]
		if !okA || !okB {
			return rec, sen
		}
		oa, ob, rnd := c.cell(a, b)
		if !rnd {
			return c.states[oa], c.states[ob]
		}
		rc := c.rcells[cellKey(a, b)]
		u := r.Int64N(rc.total)
		for _, br := range rc.branches {
			if u < br.cum {
				return c.states[br.oa], c.states[br.ob]
			}
		}
		panic("pop: compiled table branch walk out of range")
	}
}

// Branches returns the entry of the ordered table-id pair (a, b) as
// branches over table ids: a randomized entry's merged branches, whose
// weights sum to the entry's total (a branch's rate is W over that
// total), or one branch of weight 1 for a deterministic entry. A null
// pair comes back as its identity branch. Ids index States().
func (c *Compiled[S]) Branches(a, b int) []Branch[int] {
	oa, ob, rnd := c.cell(int32(a), int32(b))
	if !rnd {
		return []Branch[int]{{W: 1, Rec: int(oa), Sen: int(ob)}}
	}
	rc := c.rcells[cellKey(int32(a), int32(b))]
	out := make([]Branch[int], len(rc.branches))
	prev := int64(0)
	for i, br := range rc.branches {
		out[i] = Branch[int]{W: br.cum - prev, Rec: int(br.oa), Sen: int(br.ob)}
		prev = br.cum
	}
	return out
}

// Option returns the engine option attaching this compiled table
// (WithTable(c)): the multiset backends then resolve its deterministic
// transitions by direct lookup, bypassing the transition cache.
func (c *Compiled[S]) Option() Option { return WithTable(c) }

// States returns the declared state set in canonical order (a copy).
func (c *Compiled[S]) States() []S { return append([]S(nil), c.states...) }

// NumStates returns the number of declared states.
func (c *Compiled[S]) NumStates() int { return len(c.states) }

// Deterministic reports whether every table entry is deterministic — the
// class for which the engines' table bypass eliminates rule calls
// entirely.
func (c *Compiled[S]) Deterministic() bool { return len(c.rcells) == 0 }

// RandomizedPairs returns the input pairs classified as randomized, in
// canonical id order.
func (c *Compiled[S]) RandomizedPairs() []Pair[S] {
	out := make([]Pair[S], 0, len(c.rcells))
	for a := int32(0); a < c.q; a++ {
		for b := int32(0); b < c.q; b++ {
			if _, ok := c.rcells[cellKey(a, b)]; ok {
				out = append(out, Pair[S]{Rec: c.states[a], Sen: c.states[b]})
			}
		}
	}
	return out
}

// tableView is an engine's side-car translation between its own interned
// ids and a compiled table's canonical ids. The engine id space mutates
// (interning, compaction, restore); the table's never does. tblOf grows
// in lockstep with the engine's interning table and engOf is the partial
// inverse over declared states.
type tableView[S comparable] struct {
	c     *Compiled[S]
	tblOf []int32 // engine id → table id, -1 for undeclared states
	engOf []int32 // table id → engine id, -1 while not interned
}

func newTableView[S comparable](c *Compiled[S]) *tableView[S] {
	v := &tableView[S]{c: c, engOf: make([]int32, c.q)}
	for i := range v.engOf {
		v.engOf[i] = -1
	}
	return v
}

// attachTable resolves the WithTable option for an engine with state
// type S, panicking when the compiled table was built for another type.
func attachTable[S comparable](o options) *tableView[S] {
	if o.table == nil {
		return nil
	}
	c, ok := o.table.(*Compiled[S])
	if !ok {
		panic(fmt.Sprintf("pop: WithTable holds a %T, which does not match the engine's state type", o.table))
	}
	return newTableView(c)
}

// noteIntern records a freshly interned engine id (called from the
// engines' intern, which assigns ids densely).
func (v *tableView[S]) noteIntern(s S, id int32) {
	if int(id) != len(v.tblOf) {
		panic("pop: tableView out of sync with the interning table")
	}
	t := int32(-1)
	if tid, ok := v.c.index[s]; ok {
		t = tid
		v.engOf[tid] = id
	}
	v.tblOf = append(v.tblOf, t)
}

// rebuild re-derives both translations from a rebuilt interning table
// (compaction, restore).
func (v *tableView[S]) rebuild(states []S) {
	v.tblOf = v.tblOf[:0]
	for i := range v.engOf {
		v.engOf[i] = -1
	}
	for id, s := range states {
		t := int32(-1)
		if tid, ok := v.c.index[s]; ok {
			t = tid
			v.engOf[tid] = int32(id)
		}
		v.tblOf = append(v.tblOf, t)
	}
}

// probe resolves the ordered engine-id pair against the table: ok
// reports a declared deterministic transition (including declared null
// transitions) and returns its output TABLE ids — the caller translates
// back through engOf, interning outputs not yet present. Pairs touching
// undeclared states and randomized cells report ok = false (they take
// the rule path).
func (v *tableView[S]) probe(ida, idb int32) (toa, tob int32, ok bool) {
	ta, tb := v.tblOf[ida], v.tblOf[idb]
	if ta < 0 || tb < 0 {
		return 0, 0, false
	}
	oa, ob, rnd := v.c.cell(ta, tb)
	if rnd {
		return 0, 0, false
	}
	return oa, ob, true
}

// posSizeFor sizes an engine's interning position map: generous for the
// declared state set when a table is attached, the historical default
// otherwise.
func posSizeFor[S comparable](v *tableView[S]) int {
	if v == nil {
		return 64
	}
	return max(64, 2*int(v.c.q))
}
