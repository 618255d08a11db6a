package expt

import (
	"reflect"
	"strings"
	"testing"

	"github.com/popsim/popsize/internal/core"
	"github.com/popsim/popsize/internal/pop"
	"github.com/popsim/popsize/internal/sweep"
	"github.com/popsim/popsize/internal/synthcoin"
)

// The experiment generators are exercised end-to-end at tiny scale: every
// table must render, carry one row per requested configuration, and agree
// between its markdown and CSV forms.

func checkTable(t *testing.T, tb interface {
	Markdown() string
	CSV() string
}, wantRows int) {
	t.Helper()
	md := tb.Markdown()
	if !strings.Contains(md, "|") {
		t.Fatalf("markdown missing table: %q", md)
	}
	csv := tb.CSV()
	gotRows := strings.Count(csv, "\n") - 1 // minus header
	if gotRows != wantRows {
		t.Errorf("CSV has %d data rows, want %d\n%s", gotRows, wantRows, csv)
	}
}

func TestFig2Tiny(t *testing.T) {
	ns := []int{64, 128}
	d := Fig2Def(Env{}, core.FastConfig(), ns, 2)
	res := runLocal(d.Env, d.Points, 1)
	checkTable(t, ptr(d.Render(res)), 2)
	if pts := Fig2Points(res, ns); len(pts) != 4 {
		t.Errorf("points = %d, want 4", len(pts))
	}
}

func TestProtocolExperimentsTiny(t *testing.T) {
	cfg := core.FastConfig()
	checkTable(t, ptr(ErrorDistributionDef(Env{}, cfg, []int{64}, 2).Table(1)), 1)
	checkTable(t, ptr(StateCountDef(Env{}, cfg, []int{64}, 2).Table(1)), 1)
	checkTable(t, ptr(PartitionDef(Env{}, cfg, []int{64, 128}, 2).Table(1)), 2)
	checkTable(t, ptr(LogSize2RangeDef(Env{}, cfg, []int{64}, 2).Table(1)), 1)
	checkTable(t, ptr(InteractionConcentrationDef(Env{}, []int{128}, 2).Table(1)), 1)
}

func TestSubstrateExperimentsTiny(t *testing.T) {
	checkTable(t, ptr(EpidemicDef(Env{}, []int{99}, 2).Table(1)), 1)
	checkTable(t, ptr(MaxGeometricDef(Env{}, []int{128}, 200).Table(1)), 1)
	checkTable(t, ptr(SumOfMaximaDef(Env{}, []int{128}, 50).Table(1)), 1)
	checkTable(t, ptr(DepletionDef(Env{}, []int{128}, 2).Table(1)), 1)
}

func TestTerminationExperimentsTiny(t *testing.T) {
	cfg := core.FastConfig()
	checkTable(t, ptr(ProducibilityDef(Env{}, []int{256}, 2).Table(1)), 2) // two protocols × one n
	checkTable(t, ptr(TerminationDenseDef(Env{}, cfg, []int{64}, 2).Table(1)), 1)
	checkTable(t, ptr(LeaderTerminationDef(Env{}, cfg, []int{64}, 2).Table(1)), 1)
}

func TestVariantExperimentsTiny(t *testing.T) {
	cfg := core.FastConfig()
	checkTable(t, ptr(UpperBoundDef(Env{}, cfg, []int{32}, 2).Table(1)), 1)
	checkTable(t, ptr(SyntheticCoinDef(Env{}, cfg, synthcoin.FastConfig(), []int{64}, 2).Table(1)), 1)
}

// TestSyntheticCoinHonorsBackend: both E15 points build their engine
// from the env, so the same seed under Env{Backend: pop.Batched} records
// different values from the default env (the multiset engine consumes the
// seed differently from the agent array at this size).
func TestSyntheticCoinHonorsBackend(t *testing.T) {
	cfg := core.FastConfig()
	values := func(env Env) map[string]sweep.Values {
		out := map[string]sweep.Values{}
		for _, pt := range SyntheticCoinDef(env, cfg, synthcoin.FastConfig(), []int{128}, 1).Points {
			out[pt.Experiment] = pt.Run(0, 5)
		}
		return out
	}
	def, batch := values(Env{}), values(Env{Backend: pop.Batched})
	for _, exp := range []string{"E15/main", "E15/synth"} {
		if reflect.DeepEqual(def[exp], batch[exp]) {
			t.Errorf("%s: batched env recorded the default env's values %v; the backend was ignored", exp, def[exp])
		}
	}
}

// TestProducibilityHonorsBackend: both E11 points build their engine
// through producible.CheckLemma42 with the env's option, so the same seed
// under Env{Backend: pop.Batched} records different values from the
// default env (the multiset engine consumes the seed differently from the
// agent array at this size).
func TestProducibilityHonorsBackend(t *testing.T) {
	values := func(env Env) map[string]sweep.Values {
		out := map[string]sweep.Values{}
		for _, pt := range ProducibilityDef(env, []int{256}, 1).Points {
			out[pt.Experiment] = pt.Run(0, 5)
		}
		return out
	}
	def, batch := values(Env{}), values(Env{Backend: pop.Batched})
	for _, exp := range []string{"E11/approx-majority", "E11/counter-chain"} {
		if reflect.DeepEqual(def[exp], batch[exp]) {
			t.Errorf("%s: batched env recorded the default env's values %v; the backend was ignored", exp, def[exp])
		}
	}
}

// TestDefaultSuiteFitsUnitsCap: the full and -quick suites resolve under
// sweep.MaxUnits, so the daemon's cap refuses only oversized overrides.
func TestDefaultSuiteFitsUnitsCap(t *testing.T) {
	for _, quick := range []bool{false, true} {
		if _, err := Resolve(sweep.SpecRequest{Quick: quick}); err != nil {
			t.Errorf("quick=%v: %v", quick, err)
		}
	}
}

func TestBaselineAndCompositionTiny(t *testing.T) {
	cfg := core.FastConfig()
	checkTable(t, ptr(BaselinesDef(Env{}, cfg, []int{64}, 2).Table(1)), 1)
	checkTable(t, ptr(CompositionDef(Env{}, 128, []float64{0.5}, 2).Table(1)), 2) // majority row + leader row
}

func TestAblationsTiny(t *testing.T) {
	checkTable(t, ptr(AblationClockFactorDef(Env{}, 64, []int{8, 16}, 2).Table(1)), 2)
	checkTable(t, ptr(AblationEpochFactorDef(Env{}, 64, []int{1, 2}, 2).Table(1)), 2)
	checkTable(t, ptr(AblationNoRestartDef(Env{}, 64, 2).Table(1)), 2)
}

func TestChurnExperimentsTiny(t *testing.T) {
	// Reduced constants keep the tracked runs (a full convergence budget
	// per trial) cheap at test scale.
	cfg := core.Config{ClockFactor: 8, EpochFactor: 1, GeomBonus: 2}
	checkTable(t, ptr(ChurnTrackingDef(Env{}, cfg, []int{80}, []float64{1e-4, 1e-3}, 2).Table(1)), 2)
	checkTable(t, ptr(ChurnDetectionDef(Env{}, cfg, []int{80}, 2).Table(1)), 1)
}

func ptr[T any](t T) *T { return &t }

// TestResolveEnvTrajectoryRules: the suite instruments F2 only, so
// -history/-snapshot need F2 in the selection (the error names F2), and
// -restore is rejected outright — a suite runs F2 at several sizes and
// trials, and a snapshot is one run. A bad -history-dt fails here too.
func TestResolveEnvTrajectoryRules(t *testing.T) {
	req := func(only ...string) sweep.SpecRequest {
		return sweep.SpecRequest{Quick: true, Experiments: only}
	}
	for _, tc := range []struct {
		req  sweep.SpecRequest
		traj sweep.Trajectory
		want string
	}{
		{req("E1"), sweep.Trajectory{History: "h.jsonl", HistoryEvery: 1}, "F2"},
		{req("E1", "E6"), sweep.Trajectory{Snapshot: "s.json"}, "F2"},
		{req("F2"), sweep.Trajectory{Restore: "mid.json"}, "fig2"},
		{req(), sweep.Trajectory{Restore: "mid.json"}, "fig2"},
		{req("F2"), sweep.Trajectory{History: "h.jsonl"}, "-history-dt"},
	} {
		if _, err := ResolveEnv(tc.req, &tc.traj); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v %+v: err = %v, want an error naming %s", tc.req.Experiments, tc.traj, err, tc.want)
		}
	}
	traj := &sweep.Trajectory{History: "h.jsonl", HistoryEvery: 1}
	for _, r := range []sweep.SpecRequest{req("F2", "E1"), req()} {
		suite, err := ResolveEnv(r, traj)
		if err != nil || suite.Env.Traj != traj {
			t.Errorf("%v: err = %v, want the trajectory bound to the env", r.Experiments, err)
		}
	}
	if _, err := ResolveEnv(req("E1"), &sweep.Trajectory{HistoryEvery: 1}); err != nil {
		t.Errorf("inactive trajectory rejected: %v", err)
	}
}
