package rushprobe

import (
	"reflect"
	"testing"
)

// The public parallelism knob must never change results, only
// wall-clock time.
func TestRunExperimentParallelismDeterministic(t *testing.T) {
	serial, err := RunExperiment("fig5", 1, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	defaultPar, err := RunExperiment("fig5", 1)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := RunExperiment("fig5", 1, WithParallelism(16))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, defaultPar) || !reflect.DeepEqual(serial, wide) {
		t.Error("fig5 tables depend on the parallelism setting")
	}
}

func TestSimulateReplicationsDeterministic(t *testing.T) {
	sc := Roadside(WithZetaTarget(24))
	serial, err := SimulateReplications(sc, SNIPRH, 3,
		WithEpochs(2), WithSeed(7), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := SimulateReplications(sc, SNIPRH, 3,
		WithEpochs(2), WithSeed(7), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("replicated summary depends on the parallelism setting")
	}
	if serial.Replications != 3 || serial.Strategy != SNIPRH {
		t.Errorf("summary header = (%d, %s)", serial.Replications, serial.Strategy)
	}
	if serial.Zeta <= 0 || serial.Phi <= 0 {
		t.Errorf("aggregate = (%v, %v), want positive", serial.Zeta, serial.Phi)
	}
}

func TestRunExperimentRejectsInapplicableOptions(t *testing.T) {
	if _, err := RunExperiment("fig5", 1, WithEpochs(60)); err == nil {
		t.Error("WithEpochs should be rejected, not silently ignored")
	}
	if _, err := RunExperiment("fig5", 1, WithWarmup(2)); err == nil {
		t.Error("WithWarmup should be rejected, not silently ignored")
	}
	if _, err := RunExperiment("fig5", 1, WithPatternShift(3, 2)); err == nil {
		t.Error("WithPatternShift should be rejected, not silently ignored")
	}
}

func TestRunExperimentWithSeedOverridesPositional(t *testing.T) {
	a, err := RunExperiment("ext-drh", 1, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunExperiment("ext-drh", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("WithSeed(5) should equal positional seed 5")
	}
}

func TestSimulateReplicationsValidation(t *testing.T) {
	sc := Roadside()
	if _, err := SimulateReplications(sc, SNIPRH, 0, WithEpochs(1)); err == nil {
		t.Error("zero replications should error")
	}
	if _, err := SimulateReplications(nil, SNIPRH, 1); err == nil {
		t.Error("nil scenario should error")
	}
}
