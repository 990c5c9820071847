//go:build race

package main

// raceEnabled reports whether the race detector is instrumenting this build;
// allocation-count pins skip under it (instrumentation allocates, and
// sync.Pool deliberately drops items).
const raceEnabled = true
