// Package obsv is the observability core of the serving stack:
// lock-cheap per-request span traces, fixed-bucket histograms with
// Prometheus text exposition, and a structured (JSON lines) slow-query
// log.
//
// The package is deliberately dependency-free and small enough to be
// threaded through hot paths:
//
//   - A Trace is one request's span tree. Spans carry monotonic
//     offsets from the trace start and nest (admission → kernel →
//     peel.round[i], …). All methods are safe for concurrent use and
//     nil-receiver safe, so instrumentation points never need to be
//     guarded at the call site.
//   - A Histogram is a fixed-bucket, atomics-only latency/size
//     histogram; a Registry groups counter and histogram families and
//     renders them in the Prometheus text exposition format.
//   - Func registers a gauge or counter family whose series a callback
//     produces at scrape time, for values another component already
//     owns (a queue depth, a cache's hit count, per-graph state).
//     Integer-typed values print as exact integers.
//   - A SlowLog emits one JSON line per over-threshold request.
//
// Compute kernels (internal/core, internal/peel) do not import this
// package: they expose plain `func(stage string, d time.Duration)`
// callbacks, and the serving layer adapts those to trace spans via
// (*Span).Hook. A nil callback costs one predictable branch — the
// contract that keeps disabled tracing invisible on count benchmarks.
package obsv
