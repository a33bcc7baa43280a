package activefriending

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata goldens of TestStatsAndMetricsGolden")

// goldenGraph is the seven-node graph the afserve byte goldens use.
const goldenGraph = "0 1\n0 2\n1 3\n1 4\n2 3\n2 4\n3 5\n4 5\n5 6\n6 7\n"

// goldenQueries issues one query of every protocol op, stats last.
var goldenQueries = []string{
	`{"id":1,"op":"solve","s":0,"t":5,"alpha":0.3,"eps":0.1,"n":50,"realizations":4000}`,
	`{"id":2,"op":"solvemax","s":0,"t":5,"budget":2,"realizations":4000}`,
	`{"id":3,"op":"solvemax","s":0,"t":5,"budgets":[1,2,3],"realizations":4000}`,
	`{"id":4,"op":"acceptance","s":0,"t":5,"invited":[3,4,5],"trials":4000}`,
	`{"id":5,"op":"pmax","s":0,"t":5,"trials":4000}`,
	`{"id":6,"op":"pmaxest","s":0,"t":4,"eps":0.2,"n":50,"trials":100000}`,
	`{"id":7,"op":"topk","s":0,"targets":[3,4,5,6,7],"k":2,"budget":2,"realizations":2048,"maxdraws":6000}`,
	`{"id":8,"op":"topkrefine","s":0,"targets":[3,4,5,6,7],"k":2,"budget":2,"realizations":2048,"maxdraws":6000,"extradraws":4000}`,
	`{"id":9,"op":"delta","add":[[6,7],[5,7]]}`,
	`{"id":10,"op":"stats"}`,
}

// jsonKeys lists the keys of one JSON document in document order, one
// dotted path per line, with every value masked. Array elements share
// the path "name[]" and each distinct path is listed once, so the list
// is the document's shape, not its length.
func jsonKeys(t *testing.T, doc []byte) string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(doc))
	var out []string
	seen := map[string]bool{}
	var walk func(path string) error
	walk = func(path string) error {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		switch tok {
		case json.Delim('{'):
			for dec.More() {
				k, err := dec.Token()
				if err != nil {
					return err
				}
				p := fmt.Sprint(k)
				if path != "" {
					p = path + "." + p
				}
				if !seen[p] {
					seen[p] = true
					out = append(out, p)
				}
				if err := walk(p); err != nil {
					return err
				}
			}
			_, err = dec.Token()
		case json.Delim('['):
			for dec.More() {
				if err := walk(path + "[]"); err != nil {
					return err
				}
			}
			_, err = dec.Token()
		}
		return err
	}
	if err := walk(""); err != nil {
		t.Fatalf("walking %s: %v", doc, err)
	}
	return strings.Join(out, "\n") + "\n"
}

// maskExposition keeps a Prometheus exposition's HELP/TYPE lines,
// metric names, labels and series order, and masks every sample value.
func maskExposition(exp string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(exp, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			if i := strings.LastIndexByte(line, ' '); i >= 0 {
				line = line[:i] + " _"
			}
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s diverged (rerun with -update only for an intended API change)\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestStatsAndMetricsGolden pins the two observability APIs the byte
// goldens of cmd/afserve leave open: the ordered key list of the stats
// reply (values masked), and the full /metrics exposition of a
// Metrics-armed server after one query of each op (numbers masked) —
// HELP/TYPE lines, names, labels and series order. Dashboards and
// perfbench read these series by name, and clients decode the stats
// keys, so either changing is an API change.
func TestStatsAndMetricsGolden(t *testing.T) {
	g, err := LoadEdgeList(strings.NewReader(goldenGraph))
	if err != nil {
		t.Fatal(err)
	}
	sv := NewServer(g, ServerConfig{Seed: 7, Workers: 1, Metrics: true})
	var stats []byte
	for _, q := range goldenQueries {
		rr := httptest.NewRecorder()
		sv.Handler().ServeHTTP(rr, httptest.NewRequest("POST", "/v1/query", strings.NewReader(q)))
		var resp struct {
			Op     string          `json:"op"`
			OK     bool            `json:"ok"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: undecodable reply %q: %v", q, rr.Body.String(), err)
		}
		if !resp.OK {
			t.Fatalf("%s: %s", q, resp.Error)
		}
		if resp.Op == "stats" {
			stats = resp.Result
		}
	}
	keys := jsonKeys(t, stats)
	checkGolden(t, "testdata/stats_keys.golden", keys)

	// A server without metrics answers the same ledger keys, minus the
	// registry snapshot.
	plain := NewServer(g, ServerConfig{Seed: 7, Workers: 1})
	rr := httptest.NewRecorder()
	plain.Handler().ServeHTTP(rr, httptest.NewRequest("POST", "/v1/query", strings.NewReader(`{"op":"stats"}`)))
	var resp struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	var ledgerOnly []string
	for _, k := range strings.SplitAfter(keys, "\n") {
		if k != "" && !strings.HasPrefix(k, "metrics") {
			ledgerOnly = append(ledgerOnly, k)
		}
	}
	if got, want := jsonKeys(t, resp.Result), strings.Join(ledgerOnly, ""); got != want {
		t.Errorf("plain stats keys diverged from the metrics-armed ledger keys\ngot:\n%s\nwant:\n%s", got, want)
	}

	var exp strings.Builder
	if err := sv.WriteMetrics(&exp); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/metrics.golden", maskExposition(exp.String()))
}

// TestCoalescedCallersDoNotShareResults: identical concurrent queries
// coalesce into one execution, but every caller must get its own
// result — one caller mutating its Invited slices must not change what
// another caller holds.
func TestCoalescedCallersDoNotShareResults(t *testing.T) {
	g, err := LoadEdgeList(strings.NewReader(goldenGraph))
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	ctx := context.Background()
	opts := Options{Alpha: 0.3, Eps: 0.1, N: 50, Realizations: 20000}
	// Solve: the coalesced execution samples a 20000-draw pool, so
	// callers released together overlap it.
	for attempt := 0; ; attempt++ {
		sv := NewServer(g, ServerConfig{Seed: 7, Workers: 1})
		sols := make([]*Solution, callers)
		errs := make([]error, callers)
		var start, wg sync.WaitGroup
		start.Add(1)
		for i := range sols {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				start.Wait()
				sols[i], errs[i] = sv.Solve(ctx, 0, 5, opts)
			}(i)
		}
		start.Done()
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		want := fmt.Sprint(sols[1].Invited)
		for i := range sols[0].Invited {
			sols[0].Invited[i] = -1
		}
		for i := 1; i < callers; i++ {
			if got := fmt.Sprint(sols[i].Invited); got != want {
				t.Fatalf("caller %d's Invited changed with caller 0's: %s, want %s", i, got, want)
			}
		}
		if sv.Stats().Coalesced > 0 {
			break
		}
		if attempt == 20 {
			t.Fatal("no Solve call coalesced in 20 attempts; the test lost its teeth")
		}
	}

	for attempt := 0; ; attempt++ {
		sv := NewServer(g, ServerConfig{Seed: 7, Workers: 1})
		tops := make([]*TopKResult, callers)
		errs := make([]error, callers)
		var start, wg sync.WaitGroup
		start.Add(1)
		for i := range tops {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				start.Wait()
				tops[i], errs[i] = sv.TopK(ctx, 0, []Node{3, 4, 5, 6, 7}, 2, TopKOptions{Budget: 2, Realizations: 8000})
			}(i)
		}
		start.Done()
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		// DrawsSpent is masked: a caller that misses the flight reruns
		// against warm pools and legitimately spends fewer draws.
		render := func(r *TopKResult) string {
			masked := *r
			masked.DrawsSpent = 0
			b, err := json.Marshal(masked)
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
		want := render(tops[1])
		mut := tops[0]
		for _, c := range append(mut.Winners, mut.Candidates...) {
			for j := range c.Invited {
				c.Invited[j] = -1
			}
		}
		for i := 1; i < callers; i++ {
			if got := render(tops[i]); got != want {
				t.Fatalf("caller %d's TopKResult changed with caller 0's:\n%s\nwant\n%s", i, got, want)
			}
		}
		if sv.Stats().Coalesced > 0 {
			break
		}
		if attempt == 20 {
			t.Fatal("no TopK call coalesced in 20 attempts; the test lost its teeth")
		}
	}
}
