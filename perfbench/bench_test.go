package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"dynahist/client"
)

// The benchmark's self-test: every workload runs briefly against the
// real histserved binary, every metric BENCHMARK.json declares must be
// printed with a unit and a sample count, and a truth the server never
// saw must fail the output check.

type declared struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "histserved")
	out, err := exec.Command("go", "build", "-o", bin, "dynahist/cmd/histserved").CombinedOutput()
	if err != nil {
		t.Fatalf("building histserved: %v\n%s", err, out)
	}
	return bin
}

type lastLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runBench(t *testing.T, bin string, args ...string) (int, string, lastLine) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-histserved", bin, "-work", t.TempDir(), "--seed", "3", "--seconds", "1"}, args...), &stdout, &stderr)
	out := stdout.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var ll lastLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &ll); err != nil {
		t.Fatalf("last line is not the result object: %v\nstdout:\n%s\nstderr:\n%s", err, out, stderr.String())
	}
	return code, out, ll
}

func TestBenchmarkReportsEveryMetric(t *testing.T) {
	d := readDeclared(t)
	bin := buildServer(t)
	for _, w := range d.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{d.EndToEnd, d.PerLayer} {
			code, out, ll := runBench(t, bin, "--workload", w.Name, "--trace", []string{"0", "1"}[trace])
			if code != 0 || !ll.Correct || ll.Failed != 0 || ll.Attempted < 1 {
				t.Fatalf("%s trace=%d: exit %d, correct=%v attempted=%d failed=%d\n%s", w.Name, trace, code, ll.Correct, ll.Attempted, ll.Failed, out)
			}
			if len(ll.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics in the result, %d declared", w.Name, trace, len(ll.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := ll.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s: got %+v (present %v), want unit %q", w.Name, trace, m.Name, got, ok, m.Unit)
				}
				line := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(m.Name) + ` = \S+ ` + regexp.QuoteMeta(m.Unit) + ` \(n=\d+\)$`)
				if !line.MatchString(out) {
					t.Errorf("%s trace=%d: no report line with unit and sample count for %s", w.Name, trace, m.Name)
				}
			}
		}
	}
}

func TestWrongTruthFailsTheCheck(t *testing.T) {
	bin := buildServer(t)
	code, out, ll := runBench(t, bin, "--workload", "ingest_durable", "--trace", "0", "-wrong-truth")
	if code != 1 || ll.Correct || ll.Failed == 0 {
		t.Fatalf("a truth with a phantom point passed: exit %d, correct=%v, failed=%d\n%s", code, ll.Correct, ll.Failed, out)
	}
	if !strings.Contains(out, "served total") {
		t.Errorf("failure does not name the total check:\n%s", out)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestCheckSummaryRejectsBadAnswers(t *testing.T) {
	spec := clientSpec()
	good := goodSummary()
	if err := checkSummary(spec, good); err != nil {
		t.Fatalf("good answer rejected: %v", err)
	}
	for name, mutate := range map[string]func(*client.Summary){
		"cdf above one":       func(s *client.Summary) { s.CDF[1] = 1.5 },
		"cdf decreasing":      func(s *client.Summary) { s.CDF[0], s.CDF[1] = 0.6, 0.4 },
		"quantiles decrease":  func(s *client.Summary) { s.Quantiles[0], s.Quantiles[1] = 9, 1 },
		"negative range":      func(s *client.Summary) { s.Ranges[0] = -1 },
		"missing cdf answers": func(s *client.Summary) { s.CDF = s.CDF[:1] },
	} {
		s := goodSummary()
		mutate(&s)
		if checkSummary(spec, s) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func clientSpec() client.QuerySpec {
	return client.QuerySpec{
		Quantiles: []float64{0.25, 0.75},
		CDF:       []float64{100, 200},
		Ranges:    []client.Range{{Lo: 10, Hi: 20}},
	}
}

func goodSummary() client.Summary {
	return client.Summary{Total: 10, Quantiles: []float64{3, 7}, CDF: []float64{0.4, 0.6}, Ranges: []float64{2}}
}

func TestQuietWindows(t *testing.T) {
	const limit = 10.0
	calm, busy := limit/2, limit*4
	for _, c := range []struct {
		name         string
		ticks        []float64
		want         []bool
		quiet, noisy int
	}{
		{"all calm", []float64{calm, calm, calm, calm}, []bool{true, true, true, true}, 4, 0},
		{"busy ones left out", []float64{calm, busy, calm, calm}, []bool{true, false, true, true}, 3, 1},
		{"at least half kept", []float64{busy, busy * 2, busy, busy * 3, calm}, []bool{true, false, true, false, true}, 1, 4},
	} {
		f := &foreignCPU{limit: limit, ticks: c.ticks}
		if got := f.quiet(len(c.ticks)); !slices.Equal(got, c.want) {
			t.Errorf("%s: quiet = %v, want %v", c.name, got, c.want)
		}
		if q, n := f.counts(); q != c.quiet || n != c.noisy {
			t.Errorf("%s: counts = %d quiet, %d noisy, want %d, %d", c.name, q, n, c.quiet, c.noisy)
		}
	}
	if got := (&foreignCPU{}).quiet(3); !slices.Equal(got, []bool{true, true, true}) {
		t.Errorf("without samples: quiet = %v, want every window", got)
	}
}
