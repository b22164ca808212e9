package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"livetm/internal/adversary"
	"livetm/internal/model"
)

// simTraceDigests pins, for every registered simulated engine and two
// seeds, the sha256 of the recorded history of one fixed workload in
// model.WriteTrace's encoding. A simulated run is a pure function of
// the seed, so any change to the scheduler, a TM or the recorder that
// moves a single event fails here.
var simTraceDigests = map[string][2]string{
	"sim-glock": {
		"c51e9f9ff79771f52f3f5395ac14bd6985df144ac71867b0e3d313386e4f5956",
		"ebd37a452aebd36e1b862e31739297b80dd7ad18099547945beeb499f1a04d1a",
	},
	"sim-tinystm": {
		"2dafb9d1ab1d47b949eba55c147bb308cc664c0da1adb9889c01df7894978032",
		"5e3fc5b16477c38783cefc11273770f2f55843548a6a327de8a2712db57ca94f",
	},
	"sim-2pl": {
		"076a41c297c72493bc747329fecd6ee05f62cab2e830066d1f67f70005ed0994",
		"9cdfa4c7a91ac34e11c06de2e977038e24a812be5de888b318285082176bbe74",
	},
	"sim-tl2": {
		"6a1867a17dbae72cdac48ec8bea77e0faa722af2def1c0ff3f7184347f218112",
		"f53b3de4c25fd1fe1411e0dcd491dff2256f65a80f9798f2cc78397486bfd710",
	},
	"sim-norec": {
		"6c35f69550d10fa3635feec27c5157146ce6dc71dee2f54ed1dd393ee8080b43",
		"89cc2ae3d4bed3ca4185244493254afb83b5ec0448ec208222ce6629840e092c",
	},
	"sim-dstm": {
		"abdf87a3e612a7a8d034d94a31c2be4c7b319b92c8958ea81b2b2ef0b882dbde",
		"a2fda2ac20978ab6dc898392fe43d3caa455f8f25a76ee172d63190f57aedcb1",
	},
	"sim-ostm": {
		"cdb35174048f844d8129358e51683c116fd4e5ff2e6d8831e8de0bec516ce8fe",
		"469b196a8a8aed862ced181bd2f907d3a6009602d17e5328fdd268ee0318f22b",
	},
	"sim-fgp": {
		"649cc4d6fe244f6c0113e88ee1afb61574c86c53bd7826d05a888e72d33cbf13",
		"9801ac6eb0e429daaca5f301d860ae919850f21e657d540866426c21561e5b1f",
	},
	"sim-glock-barging": {
		"0abc1fb27a7f15d93901b7e9f3548762a26c185ae536aff9b63da20eba4424d4",
		"3855e6e0ab1e709141c04e3db8e1a220fa3d8af08b0b90222508ffd8139ca752",
	},
	"sim-dstm-abortself": {
		"2ee2459497a20fc8a1c45b5926b1543beb66111135d61458137131388cae98cf",
		"0094a87a80d9af0dfc3997522d0bc514fb8a63743f75616ae2a9ad66e920b33a",
	},
	"sim-ostm-nohelp": {
		"f2e84e793532a21e7f0330959becdbe8969b71b5df47cbf6056149bbc57493e3",
		"2fcab1ccf0ec9842886942abece09fe76646e0a25e4a5641270a288d98ed4671",
	},
	"sim-dstm-visible": {
		"96140921dbab16bbb6d534ca43bb5f7bd9768f3bf0f073072bf724b9b72168db",
		"ee713912870dd2d2cc560831886d18bc09c9440c4d3941f4a1d7114ecfe2d008",
	},
	"sim-dstm-greedy": {
		"d7ceb47ee9bae00db1cb81a81540e4b07674421305c2d7ee949df02e7c68375f",
		"46dc4b6ff78a5c9acd6ac837109120fdeac43b1cb3e3f5b27cb1f1320dcdc281",
	},
}

// alg1CrashDigest pins the history of Algorithm 1's crash variant
// (Figure 9) against sim-tl2.
const alg1CrashDigest = "ba5223db95486603150ba57d96494d559d71a59e3fbe000be89a57c630e060d0"

// goldenSeeds are the two seeds each simulated engine is pinned at.
var goldenSeeds = [2]uint64{1, 7}

// goldenBody reads one variable and writes another, both chosen from
// the process and round, so conflicts depend on the interleaving.
func goldenBody(vars int) TxBody {
	return func(proc, round int, tx Tx) error {
		v, err := tx.Read((proc + round) % vars)
		if err != nil {
			return err
		}
		return tx.Write((3*proc+5*round+1)%vars, v+1)
	}
}

func historyDigest(t *testing.T, h model.History) string {
	t.Helper()
	var buf bytes.Buffer
	if err := model.WriteTrace(&buf, h); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func TestSimTraceDigests(t *testing.T) {
	for _, e := range Engines(true) {
		if e.Capabilities().Substrate != Simulated {
			continue
		}
		for i, seed := range goldenSeeds {
			st, err := e.Run(RunConfig{Procs: 3, Vars: 8, Seed: seed, SimSteps: 4000, Record: true}, goldenBody(8))
			if err != nil {
				t.Fatalf("%s seed %d: %v", e.Name(), seed, err)
			}
			if len(st.History) == 0 {
				t.Fatalf("%s seed %d: empty history", e.Name(), seed)
			}
			if got, want := historyDigest(t, st.History), simTraceDigests[e.Name()][i]; got != want {
				t.Errorf("%s seed %d: trace digest %s, pinned %s", e.Name(), seed, got, want)
			}
		}
	}
}

func TestAlgorithm1CrashDigest(t *testing.T) {
	e, ok := Lookup("sim-tl2")
	if !ok {
		t.Fatal("sim-tl2 is not registered")
	}
	res := adversary.NewSimDriver(e.(*Sim).factory, adversary.Config{Rounds: 3, Seed: 5}).Run(adversary.Strategy{Algorithm: 1, Crash: true})
	if res.P1Committed || res.Rounds < 3 {
		t.Fatalf("p1 committed=%v after %d rounds", res.P1Committed, res.Rounds)
	}
	if got := historyDigest(t, res.History); got != alg1CrashDigest {
		t.Errorf("Algorithm 1 crash history digest %s, pinned %s", got, alg1CrashDigest)
	}
}

// simRunGolden pins the whole outcome of four simulated Run shapes
// that TestSimTraceDigests does not reach: every Stats counter, the
// step count, the returned error and the trace digest.
var simRunGolden = map[string]string{
	"bounded":     "commits=15 aborts=5 nocommits=0 per-proc=[5 5 5] steps=79 err=<nil> digest=8d0d85990f6752e8f0a47a118f9a147d8508c229fe17fed0d93179da62db88ef",
	"declines":    "commits=530 aborts=140 nocommits=530 per-proc=[165 193 172] steps=3000 err=<nil> digest=ba66174f6220f8d1c5608ba58528a5ce7c4b17ea4424999610afd47aea97f515",
	"terminal":    "commits=11 aborts=0 nocommits=0 per-proc=[4 3 4] steps=126 err=terminal body error digest=cd31db8364627b6ff5d0e3020b2905f7189e2705a01d96d57529bce1e6a60f70",
	"partitioned": "commits=92 aborts=0 nocommits=0 per-proc=[19 19 18 18 18] steps=1500 err=<nil> digest=82f5a24e56c3beb092d0370891a638390480c1c811cb15b564bbd9a717d200a7",
}

// simRunShapes are the runs simRunGolden pins.
var simRunShapes = []struct {
	name   string
	engine string
	cfg    RunConfig
	body   TxBody
}{
	// OpsPerProc rounds per process, done long before the budget.
	{"bounded", "sim-norec", RunConfig{Procs: 3, Vars: 4, Seed: 3, OpsPerProc: 5, SimSteps: 100000, Record: true}, goldenBody(4)},
	// Every other round reads and declines to commit.
	{"declines", "sim-dstm", RunConfig{Procs: 3, Vars: 4, Seed: 5, SimSteps: 3000, Record: true},
		func(proc, round int, tx Tx) error {
			if round%2 == 0 {
				return goldenBody(4)(proc, round, tx)
			}
			if _, err := tx.Read((proc + round) % 4); err != nil {
				return err
			}
			return ErrNoCommit
		}},
	// Process 1 fails terminally in its fourth round, holding the lock.
	{"terminal", "sim-glock", RunConfig{Procs: 3, Vars: 4, Seed: 9, SimSteps: 5000, Record: true},
		func(proc, round int, tx Tx) error {
			if proc == 1 && round == 3 {
				if err := tx.Write(2, 7); err != nil {
					return err
				}
				return errors.New("terminal body error")
			}
			return goldenBody(4)(proc, round, tx)
		}},
	{"partitioned", "sim-tl2", RunConfig{Procs: 5, Vars: 80, Seed: 1, SimSteps: 1500, Record: true}, partitionedBody},
}

// partitionedBody has the shape of bench's check-replay recording: five processes
// on disjoint 16-variable partitions of 80, each round reading one
// variable and incrementing four.
func partitionedBody(proc, round int, tx Tx) error {
	base := 16 * proc
	if _, err := tx.Read(base + round%16); err != nil {
		return err
	}
	for k := 1; k <= 4; k++ {
		x := base + (round*5+k*3)%16
		v, err := tx.Read(x)
		if err != nil {
			return err
		}
		if err := tx.Write(x, v+1); err != nil {
			return err
		}
	}
	return nil
}

func TestSimRunGolden(t *testing.T) {
	for _, sh := range simRunShapes {
		e, ok := Lookup(sh.engine)
		if !ok {
			t.Fatalf("%s is not registered", sh.engine)
		}
		st, err := e.Run(sh.cfg, sh.body)
		got := fmt.Sprintf("commits=%d aborts=%d nocommits=%d per-proc=%v steps=%d err=%v digest=%s",
			st.Commits, st.Aborts, st.NoCommits, st.PerWorkerCommits, st.Steps, err, historyDigest(t, st.History))
		if want := simRunGolden[sh.name]; got != want {
			t.Errorf("%s on %s:\n got  %s\n want %s", sh.name, sh.engine, got, want)
		}
	}
}
