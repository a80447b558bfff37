package db

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"

	"lexequal/internal/core"
	"lexequal/internal/metrics"
	"lexequal/internal/phoneme"
	"lexequal/internal/soundex"
	"lexequal/internal/store"
)

// FuncExpr adapts a closure into an Expr (used for predicates that
// close over prepared state, like a transformed query string).
type FuncExpr struct {
	F    func(Row) (Value, error)
	Desc string
}

// Eval implements Expr.
func (f *FuncExpr) Eval(row Row) (Value, error) { return f.F(row) }

func (f *FuncExpr) String() string { return f.Desc }

// LexConfig binds a multiscript name table to the physical structures
// the LexEQUAL strategies need. The conventional layout (produced by
// the dataset loader) is:
//
//	<table>(id INT, name NSTRING, pname STRING, groupid INT)
//	<table>_qgrams(id INT, pos INT, qgram STRING, gramhash INT)
//	index <table>_id_idx  on <table>(id)
//	index <table>_gid_idx on <table>(groupid)
//	index <table>_qgrams_cover: gramhash -> (id, pos)
//
// The lex plans differ only in where their candidates come from — a
// heap scan, a gram probe plus id fetch, a group-index probe; the
// filters and the verification are core's (core.GramFilter,
// core.Operator.VerifyStage), and joins run core.Join outright.
type LexConfig struct {
	Table    *Table
	IDCol    int
	NameCol  int
	PhonCol  int
	GroupCol int

	Aux                    *Table // nil disables the q-gram strategy
	AuxID, AuxPos, AuxGram int

	IDIndex    *Index // nil disables q-gram candidate fetch by index
	GroupIndex *Index // nil disables the phonetic-index strategy
	CoverIndex *Index // covering gram index: nil makes the q-gram probe scan the aux table

	Op *core.Operator
	Q  int

	// Snap is the read snapshot every scan and fetch in the lex plans
	// runs under (nil = latest committed state). The SQL layer sets it
	// per statement, so a lex query inside a transaction sees the
	// transaction's snapshot like any other read.
	Snap *Snap

	// Workers sets the verification parallelism of the lex nodes:
	// candidates are fetched from storage serially (the storage layer is
	// single-threaded), then the filter+verify stage runs on a morsel
	// pool of this width (core.Parallel: 1 is serial, 0 means
	// GOMAXPROCS). Results are identical at any width.
	Workers int
	// Kernel selects the verification kernel (SET lexequal_kernel).
	// Auto engages the bit-parallel kernel whenever the operator's cost
	// model compiles; results are identical under every setting.
	Kernel core.Kernel
	// Counters, when non-nil, accumulates per-stage execution counters
	// across queries (surfaced by SHOW LEXSTATS).
	Counters *metrics.PipelineCounters
}

// record folds one execution's stats into the session counters.
func (cfg *LexConfig) record(st core.Stats) {
	if cfg.Counters != nil {
		cfg.Counters.Record(st)
	}
}

// verify runs core's filter+verify stage over the fetched candidate
// rows (batched as b, one batch row per candidate) and returns the
// matching rows in fetch order.
func (cfg *LexConfig) verify(qp phoneme.String, threshold float64, b *core.Batch, rows []Row, chk core.Check) []Row {
	hits, st := cfg.Op.VerifyStage(qp, threshold, b, len(rows), nil, chk, core.Parallel(cfg.Workers), core.WithKernel(cfg.Kernel))
	st.BatchesBuilt++
	cfg.record(st)
	out := make([]Row, len(hits))
	for i, h := range hits {
		out[i] = rows[h]
	}
	return out
}

// ResolveLexConfig locates the conventional structures for table.
func ResolveLexConfig(d *DB, table string, op *core.Operator) (*LexConfig, error) {
	t, ok := d.Table(table)
	if !ok {
		return nil, fmt.Errorf("db: no table %q", table)
	}
	cfg := &LexConfig{Table: t, Op: op, Q: core.DefaultQ}
	cfg.IDCol = t.Columns.ColIndex("id")
	cfg.NameCol = t.Columns.ColIndex("name")
	cfg.PhonCol = t.Columns.ColIndex("pname")
	cfg.GroupCol = t.Columns.ColIndex("groupid")
	if cfg.NameCol < 0 {
		return nil, fmt.Errorf("db: table %q lacks a name column", table)
	}
	if aux, ok := d.Table(table + "_qgrams"); ok {
		cfg.Aux = aux
		cfg.AuxID = aux.Columns.ColIndex("id")
		cfg.AuxPos = aux.Columns.ColIndex("pos")
		cfg.AuxGram = aux.Columns.ColIndex("qgram")
		if cfg.AuxID < 0 || cfg.AuxPos < 0 || cfg.AuxGram < 0 {
			return nil, fmt.Errorf("db: aux table %s_qgrams has wrong schema", table)
		}
		if ix, ok := d.Index(CoverIndexName(t.Name)); ok {
			cfg.CoverIndex = ix
		}
	}
	if ix, ok := d.IndexOn(t.Name, "id"); ok {
		cfg.IDIndex = ix
	}
	if ix, ok := d.IndexOn(t.Name, "groupid"); ok {
		cfg.GroupIndex = ix
	}
	return cfg, nil
}

// GramHash maps a q-gram key to a non-negative int64 for B-tree
// indexing (FNV-1a). Collisions only enlarge the candidate set — the
// gram string is re-checked on fetch — so they cost time, never
// correctness.
func GramHash(key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int64(h.Sum64() & 0x7FFFFFFFFFFFFFFF)
}

// phonemes decodes the stored phonemic string of a row, falling back to
// transforming the name when no pname column exists or the row's pname
// is NULL (rows inserted through SQL). A row without a (non-empty)
// transcription never matches, as in core.
func (cfg *LexConfig) phonemes(row Row) (phoneme.String, bool) {
	if cfg.PhonCol >= 0 && row[cfg.PhonCol].T == TString {
		p := phoneme.ParseLenient(row[cfg.PhonCol].S)
		return p, len(p) > 0
	}
	nv := row[cfg.NameCol]
	if nv.T != TNString {
		return nil, false
	}
	p, err := cfg.Op.Transform(nv.S, nv.Lang)
	if err != nil {
		return nil, false
	}
	return p, len(p) > 0
}

// lexCands accumulates fetched candidate rows and their decoded
// phonemes in fetch order.
type lexCands struct {
	rows  []Row
	phons []phoneme.String
}

// add keeps row as a candidate if it passes the INLANGUAGES filter and
// has phonemes; it reports whether it did.
func (c *lexCands) add(cfg *LexConfig, row Row, langs core.LangSet) bool {
	if nv := row[cfg.NameCol]; nv.T != TNString || !langs.Contains(nv.Lang) {
		return false
	}
	p, ok := cfg.phonemes(row)
	if !ok {
		return false
	}
	c.rows = append(c.rows, row.Clone())
	c.phons = append(c.phons, p)
	return true
}

// NewLexScanNaive builds the Table-1 plan: a sequential scan invoking
// the LexEQUAL UDF on every row. The scan fetches and decodes rows
// serially, then verifies them on the morsel pool (cfg.Workers wide)
// behind the batched signature prefilter; output order is table scan
// order regardless of parallelism.
func NewLexScanNaive(cfg *LexConfig, query core.Text, threshold float64, langs core.LangSet) Node {
	qp, err := cfg.Op.Transform(query.Value, query.Lang)
	if err != nil {
		return ErrNode("lexequal: %v", err)
	}
	return &lexRowsNode{cols: cfg.Table.Columns, run: func() ([]Row, error) {
		var c lexCands
		err := cfg.Table.ScanSnap(cfg.Snap, func(_ store.RID, row Row) error {
			c.add(cfg, row, langs)
			return nil
		})
		if err != nil {
			return nil, err
		}
		sf := cfg.Op.NewSigFilter(qp, threshold, cfg.Q)
		b := cfg.Op.BuildBatch(c.phons, cfg.Kernel, cfg.Q)
		return cfg.verify(qp, threshold, b, c.rows, core.Check{Sig: &sf}), nil
	}}
}

// lexRowsNode yields precomputed rows (the materializing strategies).
type lexRowsNode struct {
	cols Schema
	run  func() ([]Row, error)
	rows []Row
	idx  int
}

func (n *lexRowsNode) Columns() Schema { return n.cols }

func (n *lexRowsNode) Open() error {
	rows, err := n.run()
	if err != nil {
		return err
	}
	n.rows = rows
	n.idx = 0
	return nil
}

func (n *lexRowsNode) Next() (Row, error) {
	if n.idx >= len(n.rows) {
		return nil, nil
	}
	r := n.rows[n.idx]
	n.idx++
	return r, nil
}

func (n *lexRowsNode) Close() error { return nil }

// NewLexScanQGram builds the Table-2 plan (Figure 14): probe the
// covering gram index (or, without one, scan the auxiliary positional
// q-gram table) with the query's grams, collect per row id the
// displacement of each matching gram, fetch the candidates via the id
// index, and run them through core's length, count and position
// filters and the UDF.
func NewLexScanQGram(cfg *LexConfig, query core.Text, threshold float64, langs core.LangSet) Node {
	if cfg.Aux == nil {
		return ErrNode("lexequal: table %s has no q-gram auxiliary table", cfg.Table.Name)
	}
	if cfg.IDCol < 0 {
		return ErrNode("lexequal: table %s has no id column", cfg.Table.Name)
	}
	return &lexRowsNode{cols: cfg.Table.Columns, run: func() ([]Row, error) {
		qp, err := cfg.Op.Transform(query.Value, query.Lang)
		if err != nil {
			return nil, err
		}
		gf := cfg.Op.NewGramFilter(qp, threshold, cfg.Q)
		// Build the query-gram hash (the tiny build side of the gram
		// join in Figure 14).
		queryGrams := map[string][]int{}
		for _, g := range gf.Grams() {
			queryGrams[g.Key()] = append(queryGrams[g.Key()], g.Pos)
		}
		// Probe: the gram join of Figure 14, with the position predicate
		// deferred. The sound position budget is per pair — it slacks by
		// the candidate's weak count (core.GramFilter.Budget), unknown
		// until the candidate row is fetched — so the probe keeps, per
		// base-row id, each matching gram's best displacement within the
		// candidate-independent cap, and the per-row filter counts the
		// displacements within the pair's exact budget.
		disps := map[int64][]int32{}
		note := func(id int64, positions []int, pos int) {
			d := -1
			for _, qpos := range positions {
				if dd := max(qpos-pos, pos-qpos); d < 0 || dd < d {
					d = dd
				}
			}
			if float64(d) <= gf.Cap() {
				disps[id] = append(disps[id], int32(d))
			}
		}
		if cfg.CoverIndex != nil {
			// Index-only probe: (id, pos) pairs come straight from the
			// covering index. A hash collision can only inflate a
			// count, which admits an extra candidate for verification —
			// never a dismissal.
			for key, positions := range queryGrams {
				vals, err := cfg.CoverIndex.Tree.Lookup(uint64(GramHash(key)))
				if err != nil {
					return nil, err
				}
				for _, v := range vals {
					id, pos := UnpackCover(v)
					note(id, positions, pos)
				}
			}
		} else {
			err = cfg.Aux.ScanSnap(cfg.Snap, func(_ store.RID, row Row) error {
				if positions, ok := queryGrams[row[cfg.AuxGram].S]; ok {
					note(row[cfg.AuxID].I, positions, int(row[cfg.AuxPos].I))
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		// Fetch candidates serially (storage access), then filter and
		// verify on the morsel pool. Candidates sharing no gram can still
		// match when MinShared is at most zero, so the heap is swept for
		// them; otherwise a candidate needs MinShared displacements
		// before it is worth fetching.
		var c lexCands
		var shared [][]int32
		collect := func(row Row) {
			if c.add(cfg, row, langs) {
				shared = append(shared, disps[row[cfg.IDCol].I])
			}
		}
		minShared := gf.MinShared()
		if cfg.IDIndex != nil {
			ids := make([]int64, 0, len(disps))
			for id, ds := range disps {
				if len(ds) >= minShared {
					ids = append(ids, id)
				}
			}
			slices.Sort(ids)
			for _, id := range ids {
				rids, err := cfg.IDIndex.Tree.Lookup(uint64(id))
				if err != nil {
					return nil, err
				}
				for _, packed := range rids {
					row, err := cfg.Table.GetSnap(cfg.Snap, store.UnpackRID(packed))
					if errors.Is(err, store.ErrDeleted) {
						continue
					}
					if err != nil {
						return nil, err
					}
					collect(row)
				}
			}
		}
		// Without an id index one heap scan fetches the probed rows; the
		// same scan (or, with the index, a residual one) sweeps the
		// zero-gram rows in the regime where they can survive.
		if cfg.IDIndex == nil || minShared <= 0 {
			err := cfg.Table.ScanSnap(cfg.Snap, func(_ store.RID, row Row) error {
				if _, seen := disps[row[cfg.IDCol].I]; seen && cfg.IDIndex == nil || !seen && minShared <= 0 {
					collect(row)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		b := cfg.Op.BuildBatch(c.phons, cfg.Kernel, cfg.Q)
		pre := func(r int, st *core.Stats) bool {
			k := gf.Budget(b.Weak(r))
			n := 0
			for _, d := range shared[r] {
				if float64(d) <= k {
					n++
				}
			}
			return gf.Admit(b.ProjLen(r), k, n, st)
		}
		return cfg.verify(qp, threshold, b, c.rows, core.Check{Pre: pre}), nil
	}}
}

// NewLexScanIndexed builds the Table-3 plan (Figure 15): compute the
// query's grouped phoneme string identifier, probe the B-tree index,
// and verify the rows sharing the signature with the UDF.
func NewLexScanIndexed(cfg *LexConfig, query core.Text, threshold float64, langs core.LangSet) Node {
	if cfg.GroupIndex == nil {
		return ErrNode("lexequal: table %s has no phonetic index", cfg.Table.Name)
	}
	return &lexRowsNode{cols: cfg.Table.Columns, run: func() ([]Row, error) {
		qp, err := cfg.Op.Transform(query.Value, query.Lang)
		if err != nil {
			return nil, err
		}
		gid := soundex.NewEncoder(cfg.Op.Clusters()).Encode(qp)
		rids, err := cfg.GroupIndex.Tree.Lookup(uint64(gid))
		if err != nil {
			return nil, err
		}
		var c lexCands
		for _, packed := range rids {
			row, err := cfg.Table.GetSnap(cfg.Snap, store.UnpackRID(packed))
			if errors.Is(err, store.ErrDeleted) {
				continue
			}
			if err != nil {
				return nil, err
			}
			c.add(cfg, row, langs)
		}
		b := cfg.Op.BuildBatch(c.phons, cfg.Kernel, 0)
		return cfg.verify(qp, threshold, b, c.rows, core.Check{}), nil
	}}
}

// JoinKernel resolves the kernel a lex join actually verifies with.
// Joins verify under the left operator's cost model, but the right
// side's kernel signatures are built under its own model: when the two
// differ, the bit-parallel path would read masks from the wrong model,
// so the join runs on the scalar kernel regardless of the session knob.
// The returned reason is non-empty exactly when that forced downgrade
// happens — EXPLAIN appends it so the plan reports the effective
// kernel, not the model-level resolution.
func JoinKernel(left, right *LexConfig) (core.Kernel, string) {
	if !left.Op.CostEqual(right.Op) {
		return core.KernelScalar, "cross-model join"
	}
	return left.Kernel, ""
}

// NewLexJoin builds the equi-join plans of Figure 5: every pair of rows
// from the two tables matching under LexEQUAL (optionally restricted to
// different languages). Each side is scanned once under its snapshot —
// a self-join over one snapshot once in all — and its decoded phoneme
// strings become a core.Corpus under the left operator, the model the
// verification runs under; core.Join then runs the strategy's probe:
// the UDF nested loop of Table 1 (Naive), the positional gram probe of
// Table 2 (QGram) or the phonetic-group probe of Table 3 (Indexed).
// The right table must carry the strategy's structures, so a strategy
// means what EXPLAIN prints. Output rows are the concatenation
// left ++ right, ordered by left then right scan position.
func NewLexJoin(left, right *LexConfig, threshold float64, diffLang bool, strat core.Strategy) Node {
	cols := append(append(Schema{}, left.Table.Columns...), right.Table.Columns...)
	kern, _ := JoinKernel(left, right)
	return &lexRowsNode{cols: cols, run: func() ([]Row, error) {
		switch {
		case strat == core.QGram && (right.Aux == nil || right.IDCol < 0):
			return nil, fmt.Errorf("lexequal: join target %s lacks q-gram structures", right.Table.Name)
		case strat == core.Indexed && right.GroupIndex == nil:
			return nil, fmt.Errorf("lexequal: join target %s lacks a phonetic index", right.Table.Name)
		}
		lrows, lc, err := left.corpus(left.Op)
		if err != nil {
			return nil, err
		}
		rrows, rc, built := lrows, lc, 1
		if right.Table != left.Table || right.Snap != left.Snap || right.Q != left.Q {
			if rrows, rc, err = right.corpus(left.Op); err != nil {
				return nil, err
			}
			built++
		}
		pairs, st, err := core.Join(lc, rc, threshold, diffLang, strat, core.Parallel(left.Workers), core.WithKernel(kern))
		if err != nil {
			return nil, fmt.Errorf("lexequal: %w", err)
		}
		st.BatchesBuilt += built
		left.record(st)
		out := make([]Row, len(pairs))
		for i, p := range pairs {
			l, r := lrows[p.Left], rrows[p.Right]
			out[i] = append(append(make(Row, 0, len(l)+len(r)), l...), r...)
		}
		return out, nil
	}}
}

// corpus scans the table once under the config's snapshot and builds a
// core corpus over the rows' decoded phoneme strings under op, returning
// the rows in corpus order. Rows without phonemes are left out.
func (cfg *LexConfig) corpus(op *core.Operator) ([]Row, *core.Corpus, error) {
	var rows []Row
	var texts []core.Text
	var phons []phoneme.String
	err := cfg.Table.ScanSnap(cfg.Snap, func(_ store.RID, row Row) error {
		p, ok := cfg.phonemes(row)
		if !ok {
			return nil
		}
		nv := row[cfg.NameCol]
		rows = append(rows, row.Clone())
		texts = append(texts, core.Text{Value: nv.S, Lang: nv.Lang})
		phons = append(phons, p)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	c, err := op.NewCorpusPhonemes(texts, phons, cfg.Q)
	return rows, c, err
}

// RegisterLexEqualUDF installs the lexequal(name, query, threshold) UDF
// into a function registry — the paper's outside-the-server integration
// path. Both string arguments must be NSTRING (language-tagged); the
// result is 1, 0, or NULL for NORESOURCE.
func RegisterLexEqualUDF(r *FuncRegistry, op *core.Operator) {
	r.Register("lexequal", func(args []Value) (Value, error) {
		if len(args) != 3 {
			return Null(), fmt.Errorf("db: lexequal expects 3 arguments, got %d", len(args))
		}
		a, b, e := args[0], args[1], args[2]
		if a.T != TNString || b.T != TNString {
			return Null(), fmt.Errorf("db: lexequal arguments must be NSTRING")
		}
		thr, ok := e.AsFloat()
		if !ok {
			return Null(), fmt.Errorf("db: lexequal threshold must be numeric")
		}
		res, err := op.Match(
			core.Text{Value: a.S, Lang: a.Lang},
			core.Text{Value: b.S, Lang: b.Lang},
			thr,
		)
		if err != nil {
			return Null(), err
		}
		switch res {
		case core.True:
			return Int(1), nil
		case core.False:
			return Int(0), nil
		default:
			return Null(), nil // NORESOURCE
		}
	})
	r.Register("soundex", func(args []Value) (Value, error) {
		if err := arity("soundex", args, 1); err != nil {
			return Null(), err
		}
		return Str(soundex.Classic(args[0].S)), nil
	})
	r.Register("phonemes", func(args []Value) (Value, error) {
		if err := arity("phonemes", args, 1); err != nil {
			return Null(), err
		}
		if args[0].T != TNString {
			return Null(), fmt.Errorf("db: phonemes argument must be NSTRING")
		}
		p, err := op.Transform(args[0].S, args[0].Lang)
		if err != nil {
			return Null(), nil // NORESOURCE or untranscribable
		}
		return Str(p.IPA()), nil
	})
}
