// Package sheriff is a Go implementation of "Sheriff: A Regional
// Pre-Alert Management Scheme in Data Center Networks" (Gao, Xu, Wu,
// Chen — ICPP 2015).
//
// Sheriff manages a data center network with per-rack delegation nodes
// (shims) instead of one centralized controller. Each shim runs two
// phases:
//
//   - Prediction: every VM's workload profile W = [CPU, MEM, IO, TRF] is
//     forecast one collection period ahead using dynamic selection between
//     ARIMA (Box–Jenkins) and NARNET (nonlinear autoregressive neural
//     network) models; a predicted component above THRESHOLD raises an
//     ALERT before the overload materializes.
//   - Management: collected alerts drive the PRIORITY knapsack selection
//     of VMs, minimum-weight matching of VMs to destination slots
//     (VMMIGRATION with the REQUEST/ACK handshake), and FLOWREROUTE for
//     outer-switch congestion. The centralized view reduces to k-median,
//     solved by p-swap local search with a 3+2/p guarantee.
//
// This root package is the stable facade: it re-exports the library's
// main types as aliases and offers one-call helpers for the common
// workflows (forecasting a series, building a simulated DCN, running the
// Sheriff-vs-centralized comparison, regenerating the paper's figures).
//
// # Option structs
//
// Every configurable surface follows one convention: an options struct
// whose zero value works, a Validate method rejecting nonsensical values
// (negative probabilities, windows, budgets), and a WithDefaults method
// filling zero fields. RuntimeOptions, PredictorOptions, migrate.Params,
// migrate.DistOptions, and faults.Plan all behave this way.
//
// # Injection hooks
//
// Cross-cutting concerns are injected, never global: observability via
// *Recorder (nil = zero-cost no-op), REQUEST admission via a per-call
// RequestPolicy (MigrationOptions.Policy, migrate.DistOptions.RequestPolicy),
// and wire faults — loss, delay, duplication, reordering, partitions — via
// a faults.Plan compiled into a comm.Options.Injector, the bus's only
// source of them. The process-wide SetRequestGate hook has been removed in
// favor of these scoped hooks.
package sheriff
