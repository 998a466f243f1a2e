package core

// WithTestHook returns a copy of o with the chunk-boundary test hook
// installed: h runs at every worker chunk boundary (and every lockstep
// turn), which is how test suites outside this package inject cancels
// and panics at exact points of the schedule. The hook is deliberately
// not a public Options field — production callers have no business in
// the hot loop — but the function ships in the main build so the public
// API's robustness tests can drive the same machinery end to end.
func WithTestHook(o Options, h func(tid int)) Options {
	o.testHook = h
	return o
}

// WithPendantTrim returns a copy of o that makes a one-shot run start as
// every pooled Workspace run does: with the graph's pendant trees
// already claimed. It exists so tests can pin the pooled path to a
// one-shot reference; production one-shot runs stay untrimmed, because
// one run does not amortize the peel.
func WithPendantTrim(o Options) Options {
	o.pendantTrim = true
	return o
}
