// Command perfbench is the repository's end-to-end benchmark. It loads
// a §5 generated name table the way cmd/mkdataset does, serves it from
// an in-process lexequald on a loopback port, and drives one of four
// closed-loop workloads over the frame protocol, checking every answer
// against an independent reference matcher (package refmatch).
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload scan|qgram|join|mixed --seed N --seconds S --trace 0|1
//	bash perfbench/run.sh --workload scan --seed N --faults
//
// The last line of standard output is one JSON object: whether every
// checked answer was right, the statements attempted and failed, and
// the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"lexequal/internal/db"
)

// spec describes one workload.
type spec struct {
	name     string
	rows     int    // rows loaded
	pool     int    // distinct selection statements
	clients  int    // reading connections
	strategy string // SET lexequal_strategy, "" for the default (naive)
	join     bool
	mixed    bool
}

var specs = []spec{
	{name: "scan", rows: 50_000, pool: 64, clients: 2},
	{name: "qgram", rows: 20_000, pool: 64, clients: 2, strategy: "qgram"},
	{name: "join", rows: 2_000, clients: 1, join: true},
	{name: "mixed", rows: 20_000, pool: 64, clients: 1, mixed: true},
}

const (
	// heldOutRows generated rows are kept out of every table: half the
	// selection pool and the mixed writer's inserts come from them.
	heldOutRows = 2_000
	insertPool  = 1_000
	// setupRows is how many rows a run loads in all: it loads, opens
	// and starts ceil(setupRows/rows) times, at least 3, and setup_s is
	// the median. Small tables set up in a tenth of a second, where one
	// slow fsync shifts a median of three.
	setupRows = 60_000
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "scan, qgram, join or mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 18, "measured seconds (rounded up to whole rounds)")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	work := flag.String("work", filepath.Join(".bench_build", "perfbench"), "directory for databases and trace files")
	faults := flag.Bool("faults", false, "only list the statements the pname round-trip fault affects at this seed")
	flag.Parse()
	var sp *spec
	for i := range specs {
		if specs[i].name == *workload {
			sp = &specs[i]
		}
	}
	if sp == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	res, err := run(*sp, *seed, *seconds, *trace == 1, *work, *faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if res == nil {
		return
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(sp spec, seed int64, seconds float64, traced bool, work string, faults bool) (*result, error) {
	t0 := time.Now()
	in, err := buildInputs(sp, seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: inputs and reference answers in %.1fs\n", time.Since(t0).Seconds())
	if faults {
		in.reportFaults()
		return nil, nil
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := filepath.Abs(filepath.Join(work, "db-"+sp.name))
	if err != nil {
		return nil, err
	}
	var setups, loads []float64
	var r *rig
	for i := 0; i < max(3, (setupRows+sp.rows-1)/sp.rows); i++ {
		if r != nil {
			if err := r.stop(); err != nil {
				return nil, err
			}
		}
		if r, err = setUp(dir, in.loaded); err != nil {
			return nil, err
		}
		setups, loads = append(setups, r.setupS), append(loads, r.loadS)
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-up %v s (load %v s)\n", setups, loads)
	size, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	var w *writer
	if sp.mixed {
		c, err := dial(r.addr, nil)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		w = &writer{in: in, c: c}
	}
	if err := in.warmUp(r); err != nil {
		return nil, err
	}

	res := &result{Metrics: map[string]metric{}}
	var phases []*tally
	if traced {
		a, b, m, err := in.tracedRun(r, w, seconds, work, seed)
		if err != nil {
			return nil, err
		}
		phases = []*tally{a, b}
		res.Metrics = m
		res.Metrics["db.load_s"] = metric{median(loads), "s"}
	} else {
		t, err := in.loop(r, w, seconds, false)
		if err != nil {
			return nil, err
		}
		phases = []*tally{t}
		put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
		put("setup_s", "s", median(setups))
		put("read_qps", "stmt/s", float64(len(t.readMS))/t.readS)
		put("read_p50_ms", "ms", median(t.readMS))
		put("read_p90_ms", "ms", percentile(t.readMS, 0.90))
		put("db_bytes_per_row", "B/row", float64(size)/float64(sp.rows))
		writeMetrics(t, func(name, unit string, v float64) {
			fmt.Fprintf(os.Stderr, "perfbench: %s = %.4g %s\n", name, v, unit)
		})
	}

	// The live heap is taken with the server still up: the inputs and
	// reference answers, plus whatever the engine keeps (pager caches,
	// transform cache, MVCC state).
	if w != nil {
		// Fold the writer's tail into the files first, so the heap is
		// not measured at a random point between checkpoints.
		if _, err := w.c.Query("CHECKPOINT"); err != nil {
			return nil, err
		}
	}
	// Two collections: the first only moves sync.Pool contents to the
	// pools' victim caches, the second frees them.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if traced {
		rss, err := peakRSSMiB()
		if err != nil {
			return nil, err
		}
		res.Metrics["process.peak_rss_mb"] = metric{rss, "MiB"}
	} else {
		res.Metrics["heap_live_mb"] = metric{float64(ms.HeapAlloc) / (1 << 20), "MiB"}
	}

	var incorrect []string
	for _, t := range phases {
		res.Attempted += t.attempted
		res.Failed += t.failed
		incorrect = append(incorrect, t.incorrect...)
	}
	final, err := in.finalCheck(r, w)
	if err != nil {
		return nil, err
	}
	incorrect = append(incorrect, final...)
	for _, s := range incorrect {
		fmt.Fprintln(os.Stderr, "perfbench: INCORRECT:", s)
	}
	res.Correct = len(incorrect) == 0
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d statements, %d failed (round-trip fault), %d pool candidates left out (round-trip fault), correct=%v\n",
		sp.name, seed, res.Attempted, res.Failed, len(in.excluded), res.Correct)
	return res, nil
}

// warmUp sends each reading client's first statement once, unmeasured
// and unchecked, so the first timed statement finds the pager and the
// transform cache as later ones do.
func (in *inputs) warmUp(r *rig) error {
	for i := 0; i < in.spec.clients; i++ {
		c, err := dial(r.addr, in.sessionSetup())
		if err != nil {
			return err
		}
		_, err = c.Query(in.round(0)[i].stmt)
		c.Close()
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// finalCheck drains the server and, on mixed, checks the end state:
// the table holds the loaded rows plus acknowledged inserts minus
// acknowledged deletes, and the reopened database passes db.Check and
// db.CheckWAL.
func (in *inputs) finalCheck(r *rig, w *writer) ([]string, error) {
	if w == nil {
		return nil, r.stop()
	}
	var bad []string
	c, err := dial(r.addr, nil)
	if err != nil {
		return nil, err
	}
	body, err := c.Query("SELECT id FROM names")
	c.Close()
	if err != nil {
		return nil, err
	}
	rows, err := parseRows(body)
	if err != nil {
		return nil, err
	}
	var ids []int
	for _, row := range rows {
		ids = append(ids, row[0])
	}
	want := w.expectedIDs()
	if !equalInts(sorted(ids), want) {
		bad = append(bad, fmt.Sprintf("final table holds %d rows, want %d (loaded + acknowledged inserts - acknowledged deletes); differing ids %v",
			len(ids), len(want), head(symDiff(sorted(ids), want), 10)))
	}
	if err := r.stop(); err != nil {
		return nil, err
	}
	d, err := db.Open(r.dir)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	for _, is := range append(d.Check(), d.CheckWAL()...) {
		bad = append(bad, "check: "+is.String())
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	return bad, nil
}

// reportFaults prints the statements of this seed's inputs whose
// answer the pname round-trip fault changes.
func (in *inputs) reportFaults() {
	fmt.Printf("%s seed: %d loaded rows, %d decode to a different phoneme string\n", in.spec.name, len(in.loaded), len(in.rt))
	if in.witness != nil {
		fmt.Printf("witness  %s\n         %s\n", in.witness.stmt, strings.Join(in.diffNotes(in.witness.want, in.witness.wantDB), "\n         "))
	}
	for _, n := range in.excluded {
		fmt.Printf("affected %s\n         %s\n", n.stmt, strings.Join(n.diffs, "\n         "))
	}
	if in.spec.join {
		var pairs []string
		for pr := range in.joinWant {
			if !in.joinWantDB[pr] {
				pairs = append(pairs, fmt.Sprintf("missed %v", pr))
			}
		}
		for pr := range in.joinWantDB {
			if !in.joinWant[pr] {
				pairs = append(pairs, fmt.Sprintf("extra %v", pr))
			}
		}
		fmt.Printf("join pairs the fault changes: %d %v\n", len(pairs), pairs)
	}
	fmt.Printf("%d pool statements affected and left out\n", len(in.excluded))
}

func sorted(xs []int) []int {
	s := append([]int(nil), xs...)
	sort.Ints(s)
	return s
}

func head(xs []int, n int) []int {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}
