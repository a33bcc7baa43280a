package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// scrape is one parsed Prometheus text exposition: each sample keyed by
// its metric name plus its labels in sorted order, e.g.
// `af_stage_seconds_sum{stage="acquire"}`.
type scrape map[string]float64

// parseProm parses the Prometheus text format the server's /metrics
// endpoint writes. Comment and blank lines are skipped; label order is
// canonicalized so lookups do not depend on how the server ordered them.
func parseProm(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", ln, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", ln, err)
		}
		series := strings.TrimSpace(line[:sp])
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				return nil, fmt.Errorf("metrics line %d: unterminated labels: %q", ln, line)
			}
			name, labels = series[:i], series[i+1:len(series)-1]
		}
		pairs, err := splitLabels(labels)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", ln, err)
		}
		out[seriesKey(name, pairs)] = v
	}
	return out, sc.Err()
}

// splitLabels splits `a="x",b="y"` into its k="v" pairs, honouring
// backslash escapes inside values.
func splitLabels(s string) ([]string, error) {
	var out []string
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, fmt.Errorf("malformed labels %q", s)
		}
		i := eq + 2
		for ; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' {
				i++
			}
		}
		if i >= len(s) {
			return nil, fmt.Errorf("unterminated label value in %q", s)
		}
		out = append(out, strings.TrimSpace(s[:i+1]))
		s = strings.TrimPrefix(strings.TrimSpace(s[i+1:]), ",")
	}
	return out, nil
}

func seriesKey(name string, pairs []string) string {
	if len(pairs) == 0 {
		return name
	}
	sort.Strings(pairs)
	return name + "{" + strings.Join(pairs, ",") + "}"
}

// get returns the sample of name with the given label key/value pairs
// (0 when the series is absent, as for a counter never exported).
func (s scrape) get(name string, kv ...string) float64 {
	pairs := make([]string, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, kv[i]+`="`+kv[i+1]+`"`)
	}
	return s[seriesKey(name, pairs)]
}

// sum adds every sample of name regardless of labels.
func (s scrape) sum(name string) float64 {
	var t float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// sumWhere adds every sample of name carrying the label k="v".
func (s scrape) sumWhere(name, k, v string) float64 {
	var t float64
	label := k + `="` + v + `"`
	for key, val := range s {
		rest, ok := strings.CutPrefix(key, name+"{")
		if !ok {
			continue
		}
		for _, p := range strings.Split(strings.TrimSuffix(rest, "}"), ",") {
			if p == label {
				t += val
				break
			}
		}
	}
	return t
}

// promDelta is the change of every series between two scrapes of one
// process; gauges read their value at the later scrape.
type promDelta struct{ before, after scrape }

func (d promDelta) get(name string, kv ...string) float64 {
	return d.after.get(name, kv...) - d.before.get(name, kv...)
}

func (d promDelta) sum(name string) float64 { return d.after.sum(name) - d.before.sum(name) }

func (d promDelta) sumWhere(name, k, v string) float64 {
	return d.after.sumWhere(name, k, v) - d.before.sumWhere(name, k, v)
}

// stage returns the seconds and span count a stage accumulated.
func (d promDelta) stage(st string) (sec, count float64) {
	return d.get("af_stage_seconds_sum", "stage", st), d.get("af_stage_seconds_count", "stage", st)
}

func fetchProm(c *http.Client, url string) (scrape, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: status %s", url, resp.Status)
	}
	return parseProm(resp.Body)
}
