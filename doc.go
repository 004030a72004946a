// Package repro is a from-scratch Go reproduction of "Enhancing Quality of
// Experience for Collaborative Virtual Reality with Commodity Mobile
// Devices" (Chen, Qian, Li — IEEE ICDCS 2022).
//
// The module's root holds the benchmark harness (bench_test.go), which
// regenerates every figure of the paper's evaluation as a testing.B
// benchmark. The implementation lives under internal/:
//
//   - internal/core — the paper's contribution: the per-slot QoE objective,
//     the Welford variance decomposition, and the Density/Value-Greedy
//     allocation algorithm (Algorithm 1, Theorem 1).
//   - internal/knapsack, internal/baseline — solver machinery and the
//     Firefly/PAVQ comparison algorithms.
//   - internal/sim plus nettrace, motion, netem, tiles — the trace-based
//     simulation platform of Section IV.
//   - internal/server, client, transport, testbed — the runnable
//     collaborative VR system of Sections V-VI and the Discussion-section
//     extensions.
//
// See README.md for usage, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-vs-measured results.
package repro
