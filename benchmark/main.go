// Command benchmark is the engine's one performance ledger: four fixed
// workloads, eight end-to-end metrics on each, and a per-layer breakdown taken
// in a separate traced run. BENCHMARK.json at the root of the repository
// names the command, the workloads and the metrics with their bounds;
// README.md in this directory defines them.
//
//	bash benchmark/run.sh --workload hot --seed 1 --seconds 18 --trace 0
//	bash benchmark/run.sh --seed 1 --out results.json        # all four, both ways
//	bash benchmark/run.sh --compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "hot, cold_spill, micro_spill or mix; empty runs all four, each in its own process, untraced and traced")
	fs.Int64Var(&o.seed, "seed", 1, "drives each client's query order and nothing else")
	fs.Float64Var(&o.seconds, "seconds", 18, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, with kernels and a traced round")
	out := fs.String("out", "", "ledger file to append this run's records to")
	spansPath := fs.String("spans", "", "with --trace 1: file to write the benchmark's spans to")
	compare := fs.Bool("compare", false, "compare two ledger files: --compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	o.sfScale = 1

	var err error
	switch {
	case *compare:
		var regressed bool
		regressed, err = compareLedgers(stdout, fs.Args())
		if err == nil && regressed {
			return 1
		}
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected arguments %q", fs.Args())
	case trace != 0 && trace != 1:
		err = fmt.Errorf("--trace is 0 or 1, not %d", trace)
	case o.workload == "":
		err = runAll(o, *out, stdout, stderr)
	default:
		err = runOne(o, *out, *spansPath, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// errIncorrect is returned after the result line has been printed.
var errIncorrect = errors.New("results differ from the reference, or executions failed")

// runOne is the driver's contract: one workload, one process, a result
// object on the last line of standard output.
func runOne(o options, outPath, spansPath string, stdout, stderr io.Writer) error {
	load := loadAverage()
	printHeader(stdout, o, load)
	if load > float64(runtime.NumCPU()) {
		fmt.Fprintf(stderr, "warning: 1-minute load average %.2f exceeds %d CPUs; timings will be noisy\n", load, runtime.NumCPU())
	}
	rec, spans, err := runWorkload(o)
	if err != nil {
		return err
	}
	for _, w := range rec.Warnings {
		fmt.Fprintln(stderr, "warning:", w)
	}
	for _, p := range rec.Problems {
		fmt.Fprintln(stderr, "failed:", p)
	}
	printRecord(stdout, rec, spans)
	if outPath != "" {
		if err := appendRecord(outPath, rec); err != nil {
			return err
		}
	}
	if spansPath != "" && spans != nil {
		if err := writeJSON(spansPath, spans.spans); err != nil {
			return err
		}
	}
	if err := printResultLine(stdout, rec); err != nil {
		return err
	}
	if !rec.Correct {
		return errIncorrect
	}
	return nil
}

// runAll runs the whole ledger: every workload untraced and traced, each in
// a child process so that peak_rss_mb and collector state are the workload's
// own. It stops at the first failure.
func runAll(o options, outPath string, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate the benchmark binary: %w", err)
	}
	for _, w := range workloads() {
		for _, trace := range []string{"0", "1"} {
			args := []string{
				"--workload", w.name, "--trace", trace,
				"--seed", strconv.FormatInt(o.seed, 10),
				"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			}
			if outPath != "" {
				args = append(args, "--out", outPath)
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s --trace %s: %w", w.name, trace, err)
			}
		}
	}
	return nil
}

// loadAverage is the 1-minute load average, 0 where /proc has none.
func loadAverage() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// commit asks git for the checkout's commit; a checkout that is not a
// repository has none.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func printHeader(w io.Writer, o options, load float64) {
	fmt.Fprintf(w, "# workload=%s trace=%v seed=%d seconds=%g\n", o.workload, o.trace, o.seed, o.seconds)
	fmt.Fprintf(w, "# commit=%s go=%s nproc=%d GOMAXPROCS=%d load1=%.2f\n",
		commit(), runtime.Version(), runtime.NumCPU(), procs(), load)
}

// printRecord prints every metric by name with its unit, its median, the
// quartiles of the samples behind it and their count.
func printRecord(w io.Writer, rec *record, spans *spanLog) {
	fmt.Fprintf(w, "# measured window %.2f s: %d rounds, %d executions; %d of %d executions failed\n",
		rec.WindowS, rec.Rounds, rec.Executions, rec.Failed, rec.Attempted)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-42s %-9s %14s %14s %14s %5s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, name := range names {
		v := rec.Metrics[name]
		fmt.Fprintf(w, "%-42s %-9s %14.6g %14.6g %14.6g %5d\n", name, v.Unit, v.Value, v.Q1, v.Q3, v.N)
	}
	if spans != nil {
		self := spans.selfByName()
		fmt.Fprintf(w, "# benchmark spans, self time:")
		for _, name := range []string{"workload", "setup", "gen", "write_table", "pass", "query", "plan_build", "execute"} {
			fmt.Fprintf(w, " %s=%.1fms", name, ms(self[name]))
		}
		fmt.Fprintln(w)
	}
}

// printResultLine prints the object the driver reads: value and unit only.
func printResultLine(w io.Writer, rec *record) error {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]valueUnit{}}
	for name, v := range rec.Metrics {
		line.Metrics[name] = valueUnit{v.Value, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encode the result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// ledger is the file --out appends to and --compare reads.
type ledger struct {
	Runs []*record `json:"runs"`
}

func readLedger(path string) (*ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

func appendRecord(path string, rec *record) error {
	l, err := readLedger(path)
	if errors.Is(err, os.ErrNotExist) {
		l, err = &ledger{}, nil
	}
	if err != nil {
		return err
	}
	l.Runs = append(l.Runs, rec)
	return writeJSON(path, l)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
