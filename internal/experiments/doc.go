// Package experiments reproduces every figure of the paper's
// evaluation (§5) on the simulated cluster — Fig. 4 (multideployment),
// Fig. 5 (multisnapshotting), Fig. 6/7 (local Bonnie++), Fig. 8 (Monte
// Carlo application) — plus the scenarios beyond them: the crowd
// deployments (RunCrowd with the FlashCrowd, Degraded, CrossZone and
// MetaOutage presets), snapshot churn under retention and garbage
// collection (RunChurn), the concurrent-commit write path
// (RunMultisnapshot), disconnected sync (RunSync) and the chunk-size
// and replication ablations. Each runner returns its data points, and a
// Table function or method renders them as the tables cmd/vmdeploy
// prints. docs/ describes the subsystem each scenario exercises.
package experiments
