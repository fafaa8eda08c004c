// Package vmath exists only for ActivePath, which the end-to-end benchmark
// (cmd/fadewich-bench) prints on its provenance line. The RF model has a
// single exact sampler and no batched kernels, so there is no dispatch
// path to report. The package goes away together with that provenance
// field.
package vmath

// ActivePath reports the kernel dispatch path: always "none".
func ActivePath() string { return "none" }
