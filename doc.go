// Package livetm reproduces "On the Liveness of Transactional Memory"
// (Bushkov, Guerraoui, Kapałka; PODC 2012) as an executable Go
// library. README.md gives the overview: the paper, the layers along
// the commit path, the worked example, which command reproduces which
// figure or theorem, and where each verdict is defined.
//
// This directory holds no library code. Its bench_test.go is the
// benchmark harness: one benchmark per figure and theorem of the
// paper, the liveness matrix, and TestWorkloadMatrixArtifact, which
// runs the workload matrix on every engine and writes nothing. The
// implementation lives under internal/, each package documenting its
// own layer (go doc livetm/internal/engine and so on); cmd/figures
// and cmd/livetm are the experiment drivers, and bench/ is the
// end-to-end benchmark that BENCHMARK.json declares and the one
// performance ledger.
package livetm
