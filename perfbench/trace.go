package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"lexequal/internal/core"
	"lexequal/internal/db"
	"lexequal/internal/editdist"
	"lexequal/internal/metrics"
	"lexequal/internal/phoneme"
	"lexequal/internal/qgram"
	"lexequal/internal/soundex"
	"lexequal/internal/sql"
	"lexequal/internal/store"
)

// maxReplay bounds how many traced round trips are replayed layer by
// layer.
const maxReplay = 8

// span is one timed call at a layer boundary. Spans of one request
// share rid; times are nanoseconds since the tracer's origin.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	RID    int64  `json:"rid"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func (tr *tracer) add(name string, parent int, rid int64, s, e time.Time) int {
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, RID: rid, Name: name,
		Start: s.Sub(tr.origin).Nanoseconds(), End: e.Sub(tr.origin).Nanoseconds()})
	return len(tr.spans)
}

// timed runs fn as a child span and returns its duration in ms.
func (tr *tracer) timed(name string, parent int, rid int64, fn func() error) (float64, error) {
	s := time.Now()
	err := fn()
	e := time.Now()
	tr.add(name, parent, rid, s, e)
	return e.Sub(s).Seconds() * 1000, err
}

func (tr *tracer) write(path string) error {
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ckptWatch samples WALStats while a phase runs and totals the
// checkpoints that completed in it.
type ckptWatch struct {
	stop  chan struct{}
	done  chan struct{}
	count int
	ms    float64
	gced  int
}

func watchCheckpoints(d *db.DB) *ckptWatch {
	cw := &ckptWatch{stop: make(chan struct{}), done: make(chan struct{})}
	seen := d.WALStats().Checkpoints
	go func() {
		defer close(cw.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-cw.stop:
				return
			case <-tick.C:
				ws := d.WALStats()
				if ws.Checkpoints != seen {
					// A poll that misses one of two back-to-back
					// checkpoints still counts both; only the newer's
					// duration and GC count are seen.
					cw.count += int(ws.Checkpoints - seen)
					cw.ms += ws.LastCheckpoint.Duration.Seconds() * 1000
					cw.gced += ws.LastCheckpoint.VersionsGCed
					seen = ws.Checkpoints
				}
			}
		}
	}()
	return cw
}

func (cw *ckptWatch) finish() { close(cw.stop); <-cw.done }

// layerTimes collects the replayed per-layer durations.
type layerTimes struct {
	wireMinusExec, exec, overhead, plan []float64
	scan, decode, probe, inmem          []float64
	insWireMinusExec                    []float64
	counters                            metrics.PipelineSnapshot
	statements                          int
	verifyNS                            float64
}

// tracedRun is the --trace 1 run: an untraced closed loop, then a
// traced one of the same length, then a layer-by-layer replay of
// traced round trips. It returns both phases' tallies and the per-layer
// metrics.
func (in *inputs) tracedRun(r *rig, w *writer, seconds float64, work string, seed int64) (a, b *tally, m map[string]metric, err error) {
	tr := &tracer{origin: time.Now()}
	transformMS, err := tr.timed("ttp.transform", 0, 0, func() error { return transformAll(in.loaded) })
	if err != nil {
		return nil, nil, nil, err
	}
	a, err = in.loop(r, w, seconds/2, false)
	if err != nil {
		return nil, nil, nil, err
	}
	io0, ws0 := r.fs.snapshot(), r.d.WALStats()
	cw := watchCheckpoints(r.d)
	b, err = in.loop(r, w, seconds/2, true)
	cw.finish()
	if err != nil {
		return nil, nil, nil, err
	}
	io, ws1 := r.fs.snapshot().sub(io0), r.d.WALStats()

	wireSpan := map[int64]int{}
	for _, wc := range b.wires {
		wireSpan[wc.rid] = tr.add("server.wire", 0, wc.rid, wc.start, wc.end)
	}
	lt, err := in.replay(r, b.wires, wireSpan, tr)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("replay: %w", err)
	}
	if err := tr.write(fmt.Sprintf("%s/trace-%s-%d.json", work, in.spec.name, seed)); err != nil {
		return nil, nil, nil, err
	}

	m = map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	per := func(x, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(x) / float64(n)
	}
	put("server.wire_ms", "ms", median(lt.wireMinusExec))
	put("server.wire_insert_ms", "ms", median(lt.insWireMinusExec))
	put("sql.exec_ms", "ms", median(lt.exec))
	put("sql.overhead_ms", "ms", median(lt.overhead))
	put("db.plan_ms", "ms", median(lt.plan))
	put("store.scan_ms", "ms", median(lt.scan))
	put("phoneme.decode_ms", "ms", median(lt.decode))
	put("store.gram_probe_ms", "ms", median(lt.probe))
	if in.spec.join {
		put("core.join_ms", "ms", median(lt.inmem))
		put("core.select_ms", "ms", 0)
	} else {
		put("core.select_ms", "ms", median(lt.inmem))
		put("core.join_ms", "ms", 0)
	}
	put("editdist.verify_ns_per_pair", "ns", lt.verifyNS)
	c, n := lt.counters, int64(lt.statements)
	put("core.rows_probed", "rows/stmt", per(c.Rows, n))
	put("core.pruned_sig", "rows/stmt", per(c.PrunedSig, n))
	put("core.pruned_length", "rows/stmt", per(c.PrunedLength, n))
	put("core.pruned_count", "rows/stmt", per(c.PrunedCount, n))
	put("core.candidates", "rows/stmt", per(c.Candidates, n))
	put("core.matches", "rows/stmt", per(c.Matches, n))
	put("core.candidate_yield", "ratio", per(c.Matches, c.Candidates))
	put("editdist.bitvec_ops", "ops/stmt", per(c.BitvecOps, n))
	put("editdist.scalar_fallbacks", "pairs/stmt", per(c.ScalarFallbacks, n))
	put("editdist.dp_cells", "cells/stmt", per(c.DPCells, n))

	reads, writes := int64(len(b.readMS)), int64(len(b.insertMS)+len(b.deleteMS))
	commits := int64(ws1.Commits - ws0.Commits)
	put("store.read_bytes_per_read", "B/stmt", per(io.dataReadBytes, reads))
	put("store.write_bytes_per_write", "B/stmt", per(io.dataWriteBytes+io.walWriteBytes, writes))
	put("store.syncs_per_write", "syncs/stmt", per(io.dataSyncs+io.walSyncs, writes))
	put("wal.bytes_per_commit", "B/commit", per(io.walWriteBytes, commits))
	put("wal.syncs_per_commit", "syncs/commit", per(int64(ws1.Syncs-ws0.Syncs), commits))
	put("db.checkpoints", "count", float64(cw.count))
	put("db.checkpoint_ms", "ms", per(int64(cw.ms*1000), int64(cw.count)*1000))
	put("db.versions_gced", "count", float64(cw.gced))

	put("ttp.load_transform_s", "s", transformMS/1000)
	fmt.Fprintf(os.Stderr, "perfbench: read p50 %.2f ms untraced (%d statements), %.2f ms traced (%d)\n",
		median(a.readMS), len(a.readMS), median(b.readMS), len(b.readMS))
	put("trace.overhead_pct", "%", (median(b.readMS)/median(a.readMS)-1)*100)
	writeMetrics(a, put)
	return a, b, m, nil
}

// writeMetrics reports the mixed writer's side from the untraced phase
// (0 on the read-only workloads).
func writeMetrics(t *tally, put func(name, unit string, v float64)) {
	qps := 0.0
	if t.writeS > 0 {
		qps = float64(len(t.insertMS)+len(t.deleteMS)) / t.writeS
	}
	put("write.qps", "stmt/s", qps)
	put("write.insert_p50_ms", "ms", median(t.insertMS))
	put("write.insert_p99_ms", "ms", percentile(t.insertMS, 0.99))
	put("write.delete_p50_ms", "ms", median(t.deleteMS))
	put("write.delete_p90_ms", "ms", percentile(t.deleteMS, 0.90))
}

// transformAll is the TTP share of a load: every loaded text through a
// fresh operator.
func transformAll(texts []core.Text) error {
	op, err := core.New(core.Options{})
	if err != nil {
		return err
	}
	for _, t := range texts {
		if _, err := op.Transform(t.Value, t.Lang); err != nil {
			return err
		}
	}
	return nil
}

// replay walks traced round trips through each layer's public entry
// points, one call after another on an idle server: the SQL session,
// the db plan node, the heap scan and pname decode, the gram probe,
// the in-memory strategy and the verify kernel.
func (in *inputs) replay(r *rig, wires []wireCall, wireSpan map[int64]int, tr *tracer) (*layerTimes, error) {
	op, err := core.New(core.Options{})
	if err != nil {
		return nil, err
	}
	sess, err := sql.NewSession(r.d, op)
	if err != nil {
		return nil, err
	}
	for _, s := range in.sessionSetup() {
		if _, err := sess.Exec(s); err != nil {
			return nil, err
		}
	}
	corpus, err := op.NewCorpus(in.loaded)
	if err != nil {
		return nil, err
	}
	byStmt := map[string]*query{}
	for _, q := range in.pool {
		byStmt[q.stmt] = q
	}
	if in.witness != nil {
		byStmt[in.witness.stmt] = in.witness
	}
	lt := &layerTimes{}
	seen := map[string]bool{}
	reads, inserts := 0, 0
	for _, wc := range wires {
		if wc.write {
			if !in.spec.mixed || inserts >= maxReplay || !strings.HasPrefix(wc.stmt, "INSERT") {
				continue
			}
			inserts++
			// Replay the insert on a fresh id and take it out again, so
			// the table ends as the writer left it.
			root := tr.add("replay", wireSpan[wc.rid], wc.rid, time.Now(), time.Now())
			id := len(in.loaded) + 1_000_000 + inserts
			stmt := insertStmt(id, in.inserts[inserts%len(in.inserts)])
			ms, err := tr.timed("sql.exec", root, wc.rid, func() error { _, err := sess.Exec(stmt); return err })
			if err != nil {
				return nil, err
			}
			tr.spans[root-1].End = tr.spans[root].End
			if _, err := sess.Exec(fmt.Sprintf("DELETE FROM names WHERE id = %d", id)); err != nil {
				return nil, err
			}
			lt.insWireMinusExec = append(lt.insWireMinusExec, wc.end.Sub(wc.start).Seconds()*1000-ms)
			continue
		}
		if reads >= maxReplay || (seen[wc.stmt] && !in.spec.join) {
			continue
		}
		seen[wc.stmt] = true
		reads++
		if err := in.replayRead(r, sess, op, corpus, byStmt[wc.stmt], wc, wireSpan[wc.rid], tr, lt); err != nil {
			return nil, err
		}
	}
	lt.statements = reads
	var err2 error
	lt.verifyNS, err2 = in.verifyKernel(op, corpus, tr)
	return lt, err2
}

func (in *inputs) replayRead(r *rig, sess *sql.Session, op *core.Operator, corpus *core.Corpus, q *query, wc wireCall, wire int, tr *tracer, lt *layerTimes) error {
	root := tr.add("replay", wire, wc.rid, time.Now(), time.Now())
	before := sess.Pipeline.Snapshot()
	execMS, err := tr.timed("sql.exec", root, wc.rid, func() error { _, err := sess.Exec(wc.stmt); return err })
	if err != nil {
		return err
	}
	after := sess.Pipeline.Snapshot()
	addCounters(&lt.counters, before, after)

	lock := r.d.QueryLock()
	lock.RLock()
	defer lock.RUnlock()
	snap := r.d.AcquireSnap()
	defer r.d.ReleaseSnap(snap)
	resolve := func() (*db.LexConfig, error) {
		cfg, err := db.ResolveLexConfig(r.d, "names", op)
		if err != nil {
			return nil, err
		}
		cfg.Snap, cfg.Workers, cfg.Kernel = snap, sess.Parallelism, sess.Kernel
		return cfg, nil
	}
	cfg, err := resolve()
	if err != nil {
		return err
	}
	var node db.Node
	switch {
	case in.spec.join:
		right, err := resolve()
		if err != nil {
			return err
		}
		node = db.NewLexJoin(cfg, right, threshold, false, core.Naive)
	case in.spec.strategy == "qgram":
		node = db.NewLexScanQGram(cfg, q.text, threshold, nil)
	default:
		node = db.NewLexScanNaive(cfg, q.text, threshold, nil)
	}
	planMS, err := tr.timed("db.plan", root, wc.rid, func() error { _, err := db.Collect(node); return err })
	if err != nil {
		return err
	}
	scanMS, err := tr.timed("store.scan", root, wc.rid, func() error {
		return cfg.Table.Scan(func(store.RID, db.Row) error { return nil })
	})
	if err != nil {
		return err
	}
	var pnames []string
	if err := cfg.Table.Scan(func(_ store.RID, row db.Row) error {
		if v := row[cfg.PhonCol]; v.T == db.TString {
			pnames = append(pnames, v.S)
		}
		return nil
	}); err != nil {
		return err
	}
	var sink int
	decodeMS, _ := tr.timed("phoneme.decode", root, wc.rid, func() error {
		for _, s := range pnames {
			sink += len(phoneme.ParseLenient(s))
		}
		return nil
	})
	if in.spec.strategy == "qgram" {
		enc := soundex.NewEncoder(op.Clusters())
		keys := map[string]bool{}
		for _, g := range qgram.Extract(enc.Project(q.phon), cfg.Q) {
			keys[g.Key()] = true
		}
		probeMS, err := tr.timed("store.gram_probe", root, wc.rid, func() error {
			for k := range keys {
				if _, err := cfg.CoverIndex.Tree.Lookup(uint64(db.GramHash(k))); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		lt.probe = append(lt.probe, probeMS)
	}
	var inmemMS float64
	if in.spec.join {
		inmemMS, err = tr.timed("core.join", root, wc.rid, func() error {
			_, _, err := core.SelfJoin(corpus, threshold, false, core.Naive, core.Parallel(sess.Parallelism))
			return err
		})
	} else {
		strat := core.Naive
		if in.spec.strategy == "qgram" {
			strat = core.QGram
		}
		inmemMS, err = tr.timed("core.select", root, wc.rid, func() error {
			_, _, err := corpus.Select(q.text, threshold, nil, strat)
			return err
		})
	}
	if err != nil {
		return err
	}
	tr.spans[root-1].End = tr.spans[len(tr.spans)-1].End
	lt.wireMinusExec = append(lt.wireMinusExec, wc.end.Sub(wc.start).Seconds()*1000-execMS)
	lt.exec = append(lt.exec, execMS)
	lt.overhead = append(lt.overhead, execMS-planMS)
	lt.plan = append(lt.plan, planMS)
	lt.scan = append(lt.scan, scanMS)
	lt.decode = append(lt.decode, decodeMS)
	lt.inmem = append(lt.inmem, inmemMS)
	return nil
}

func addCounters(acc *metrics.PipelineSnapshot, before, after metrics.PipelineSnapshot) {
	acc.Rows += after.Rows - before.Rows
	acc.Candidates += after.Candidates - before.Candidates
	acc.PrunedLength += after.PrunedLength - before.PrunedLength
	acc.PrunedCount += after.PrunedCount - before.PrunedCount
	acc.PrunedSig += after.PrunedSig - before.PrunedSig
	acc.DPCells += after.DPCells - before.DPCells
	acc.Matches += after.Matches - before.Matches
	acc.BitvecOps += after.BitvecOps - before.BitvecOps
	acc.ScalarFallbacks += after.ScalarFallbacks - before.ScalarFallbacks
}

// verifyKernel times the verify kernel alone over the stream the
// signature prefilter lets through: the bit-parallel decision per
// pair, with the scalar DP for pairs it leaves undecided.
func (in *inputs) verifyKernel(op *core.Operator, corpus *core.Corpus, tr *tracer) (float64, error) {
	phons := make([]phoneme.String, corpus.Len())
	for i := range phons {
		phons[i] = corpus.Phonemes(i)
	}
	batch := op.BuildBatch(phons, core.KernelAuto, core.DefaultQ)
	var patterns []phoneme.String
	if in.spec.join {
		patterns = phons[:32]
	} else {
		for _, q := range in.pool[:min(len(in.pool), maxReplay)] {
			patterns = append(patterns, q.phon)
		}
	}
	bv, ok := editdist.NewBitvec(op.Cost())
	if !ok {
		return 0, fmt.Errorf("cost model %s has no bit-parallel kernel", op.Cost().Name())
	}
	scratch := editdist.NewScratch()
	var pairs int
	var elapsed time.Duration
	for _, qp := range patterns {
		sf := op.NewSigFilter(qp, threshold, core.DefaultQ)
		var st core.Stats
		var cands []phoneme.String
		for i := range phons {
			if len(phons[i]) > 0 && sf.Admit(batch, i, &st) {
				cands = append(cands, phons[i])
			}
		}
		sigs := make([]uint64, len(cands))
		weak := make([]int, len(cands))
		for i, c := range cands {
			sigs[i], weak[i] = bv.CandSig(c), editdist.WeakCount(c)
		}
		start := time.Now()
		prepared := bv.Prepare(qp)
		for i, c := range cands {
			bound := threshold * float64(min(len(qp), len(c)))
			if prepared {
				if _, decided, _ := bv.Decide(c, weak[i], sigs[i], bound); decided {
					continue
				}
			}
			editdist.DistanceBoundedScratch(qp, c, op.Cost(), bound, scratch)
		}
		end := time.Now()
		tr.add("editdist.verify", 0, 0, start, end)
		elapsed += end.Sub(start)
		pairs += len(cands)
	}
	if pairs == 0 {
		return 0, nil
	}
	return float64(elapsed.Nanoseconds()) / float64(pairs), nil
}
