// Package core implements HARS, the heterogeneity-aware runtime system for
// self-adaptive multithreaded applications (the paper's primary
// contribution).
//
// HARS consists of three components:
//
//   - the performance estimator (Table 3.1): given a candidate system state
//     it computes the thread assignment that minimizes the completion time
//     of an equally-partitioned unit of work, the resulting estimated
//     execution time t_f = max(t_B, t_L), and the per-cluster utilizations,
//     memoized in one table per board and thread count that every manager
//     built from the board's EstimatorSet shares;
//   - the power estimator (Equations 3.1–3.2): per-cluster linear models
//     P = α·(C_U·U_U) + β fitted offline from profiled sensor data
//     (internal/power);
//   - the runtime manager (Algorithms 1–2): a daemon that watches the
//     application's heartbeat rate, and when it leaves the target band,
//     sweeps the neighbouring system states (bounded by the m, n and
//     Manhattan-distance d parameters), scores each candidate by normalized
//     performance per watt, applies the best state, and schedules the
//     application's threads onto the allocated cores with either the
//     chunk-based or the interleaving scheduler.
//
// Three presets mirror the paper's versions: HARS-I (incremental search,
// d = 1), HARS-E (exhaustive search, m = n = 4, d = 7, chunk-based
// scheduling) and HARS-EI (HARS-E with the interleaving scheduler).
package core
