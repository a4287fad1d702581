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
// This root package is the front door the runnable examples use: the
// alert rule (EvaluateAlert, DefaultThresholds), a Fat-Tree cluster with
// one shim per rack (NewFatTreeCluster), and the simulated DCN behind the
// paper's Figs. 9–14 (BuildSimulation, Compare). Its types are aliases of
// the internal packages', which stay the single source of truth.
package sheriff
