package engine

import (
	"runtime"
	"strings"
	"testing"

	"livetm/internal/model"
)

// Counts whose identifiers would not fit a model.Proc or model.TVar are
// refused at every configuration edge, with an error and before
// anything is allocated or started. Each row checks the pure validator
// first, so a missing bound fails here instead of spawning tens of
// thousands of workers; then the public entry point, which must give
// the same refusal and leave no goroutine behind.
func TestConfigRefusesIDsPastTheModel(t *testing.T) {
	noop := func(int, int, Tx) error { return nil }
	rows := []struct {
		name  string
		check func() error // the validator the entry point runs first
		enter func() error // the public entry point
		want  string
	}{
		{"sim Procs", RunConfig{Procs: model.MaxProc + 1, Vars: 1, SimSteps: 1}.validateSim,
			func() error {
				return runOn(t, "sim-tl2", RunConfig{Procs: model.MaxProc + 1, Vars: 1, SimSteps: 1}, noop)
			},
			"above model.MaxProc"},
		{"sim Vars", RunConfig{Procs: 1, Vars: model.MaxTVar + 1, SimSteps: 1}.validateSim,
			func() error {
				return runOn(t, "sim-tl2", RunConfig{Procs: 1, Vars: model.MaxTVar + 1, SimSteps: 1}, noop)
			},
			"above model.MaxTVar"},
		{"native Procs", SessionConfig{Workers: model.MaxProc + 1, Vars: 1}.withDefaults().validate,
			func() error {
				return runOn(t, "native-tl2", RunConfig{Procs: model.MaxProc + 1, Vars: 1, OpsPerProc: 1}, noop)
			},
			"above model.MaxProc"},
		{"native Vars", SessionConfig{Workers: 1, Vars: model.MaxTVar + 1}.withDefaults().validate,
			func() error {
				return runOn(t, "native-tl2", RunConfig{Procs: 1, Vars: model.MaxTVar + 1, OpsPerProc: 1}, noop)
			},
			"above model.MaxTVar"},
		{"session Workers", SessionConfig{Workers: model.MaxProc + 1, Vars: 1}.withDefaults().validate,
			func() error { return openOn(SessionConfig{Workers: model.MaxProc + 1, Vars: 1}) },
			"above model.MaxProc"},
		{"session MaxWorkers", SessionConfig{Workers: 1, MaxWorkers: model.MaxProc + 1, Vars: 1}.withDefaults().validate,
			func() error { return openOn(SessionConfig{Workers: 1, MaxWorkers: model.MaxProc + 1, Vars: 1}) },
			"above model.MaxProc"},
		{"session Vars", SessionConfig{Workers: 1, Vars: model.MaxTVar + 1}.withDefaults().validate,
			func() error { return openOn(SessionConfig{Workers: 1, Vars: model.MaxTVar + 1}) },
			"above model.MaxTVar"},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if err := r.check(); err == nil || !strings.Contains(err.Error(), r.want) {
				t.Fatalf("validator: %v, want an error containing %q", err, r.want)
			}
			before := runtime.NumGoroutine()
			err := r.enter()
			if err == nil || !strings.Contains(err.Error(), r.want) {
				t.Fatalf("entry point: %v, want an error containing %q", err, r.want)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("%d goroutines after the refusal, %d before", after, before)
			}
		})
	}

	// The largest counts the model holds pass the validators.
	if err := (RunConfig{Procs: model.MaxProc, Vars: model.MaxTVar, SimSteps: 1}).validateSim(); err != nil {
		t.Errorf("sim at the bounds: %v", err)
	}
	if err := (SessionConfig{Workers: model.MaxProc, Vars: model.MaxTVar}).withDefaults().validate(); err != nil {
		t.Errorf("session at the bounds: %v", err)
	}
}

func runOn(t *testing.T, name string, cfg RunConfig, body TxBody) error {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("no engine %q", name)
	}
	_, err := e.Run(cfg, body)
	return err
}

func openOn(cfg SessionConfig) error {
	cfg.Engine = "native-tl2"
	s, err := Open(cfg)
	if err == nil {
		s.Close()
	}
	return err
}
