package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// snapshot is one reading of the server's instruments: the "name value"
// lines of an INFO reply, which are the same samples the -metrics endpoint
// exports. Histograms appear as <name>.count, .sum, .p50, .p90, .p99, .max.
type snapshot map[string]int64

// readInfo parses one INFO reply: an "INFO <n>" header followed by n
// "name value" lines.
func readInfo(r *bufio.Reader) (snapshot, error) {
	header, err := readLine(r)
	if err != nil {
		return nil, fmt.Errorf("read INFO header: %w", err)
	}
	count, ok := strings.CutPrefix(header, "INFO ")
	if !ok {
		return nil, fmt.Errorf("INFO reply header %q", header)
	}
	n, err := strconv.Atoi(count)
	if err != nil || n < 0 {
		return nil, fmt.Errorf("INFO reply header %q", header)
	}
	snap := make(snapshot, n)
	for i := 0; i < n; i++ {
		line, err := readLine(r)
		if err != nil {
			return nil, fmt.Errorf("read INFO line %d of %d: %w", i+1, n, err)
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("INFO line %q has no value", line)
		}
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("INFO line %q: %w", line, err)
		}
		snap[name] = v
	}
	return snap, nil
}

// readLine reads one newline-terminated line without its line ending.
func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

// delta is the change of every instrument between two snapshots taken
// around a measured window.
type delta struct{ before, after snapshot }

// get is the change of one counter (or histogram .count/.sum); a name
// missing from both snapshots reads 0.
func (d delta) get(name string) float64 {
	return float64(d.after[name] - d.before[name])
}

// mean is the mean of the observations one histogram gained in the window,
// from the exact .sum and .count deltas (0 when it gained none).
func (d delta) mean(hist string) float64 {
	return ratio(d.get(hist+".sum"), d.get(hist+".count"))
}

// join combines two windows' deltas into one whose changes are their sums
// and whose end reading is e's. A zero delta joins as nothing.
func (d delta) join(e delta) delta {
	if d.before == nil {
		return e
	}
	before := make(snapshot, len(e.after))
	for name := range e.after {
		before[name] = e.before[name] - (d.after[name] - d.before[name])
	}
	return delta{before, e.after}
}

// sum adds the changes of several counters.
func (d delta) sum(names ...string) float64 {
	var t float64
	for _, n := range names {
		t += d.get(n)
	}
	return t
}
