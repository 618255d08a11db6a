package protocol

import (
	"github.com/popsim/popsize/internal/pop"
	"github.com/popsim/popsize/internal/sweep"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestLookupUnknownListsNames(t *testing.T) {
	_, err := Lookup("no-such-protocol")
	if err == nil {
		t.Fatal("Lookup of unknown name succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"no-such-protocol"`) {
		t.Errorf("error %q does not quote the bad name", msg)
	}
	for _, name := range []string{"epidemic", "approxmajority", "junta", "bkrcount", "repeatmajority"} {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not list registered protocol %s", msg, name)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	for _, bad := range []Info{
		{Name: "", New: func(Config) (*Runner, error) { return nil, nil }},
		{Name: "x", New: nil},
		{Name: "epidemic", New: func(Config) (*Runner, error) { return nil, nil }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%+v) did not panic", bad)
				}
			}()
			Register(bad)
		}()
	}
}

func TestTrajectoryNamesSubsetOfNames(t *testing.T) {
	all := map[string]bool{}
	for _, n := range Names() {
		all[n] = true
	}
	traj := TrajectoryNames()
	if len(traj) == 0 {
		t.Fatal("no trajectory-capable protocols registered")
	}
	for _, n := range traj {
		if !all[n] {
			t.Errorf("trajectory name %s missing from Names()", n)
		}
	}
}

// TestZooProtocolsConverge runs every table-compiled zoo protocol
// end-to-end through its registered factory at a small population and
// checks it converges with the table bypass fully covering the dynamics
// (rule calls would mean the declared table missed reachable pairs).
func TestZooProtocolsConverge(t *testing.T) {
	for _, name := range []string{"epidemic", "approxmajority", "repeatmajority", "junta", "bkrcount"} {
		t.Run(name, func(t *testing.T) {
			info, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			if !info.Trajectory {
				t.Errorf("%s is table-compiled but not trajectory-capable", name)
			}
			var trialErr error
			r, err := info.New(Config{
				N: 600, Trials: 2, CollectStats: true, Backend: pop.Batched,
				OnError: func(e error) { trialErr = e },
			})
			if err != nil {
				t.Fatal(err)
			}
			for tr := 0; tr < 2; tr++ {
				v := r.Run(tr, uint64(100+tr))
				if trialErr != nil {
					t.Fatal(trialErr)
				}
				if v["converged"] != 1 {
					t.Errorf("trial %d did not converge: %v", tr, v)
				}
				if line := r.Format(v); line == "" {
					t.Errorf("trial %d: empty Format line", tr)
				}
			}
			lines := r.StatsLines()
			if len(lines) != 2 {
				t.Fatalf("StatsLines = %v, want 2 entries", lines)
			}
			for _, line := range lines {
				if !strings.Contains(line, "rule=0") {
					t.Errorf("table bypass incomplete: %s", line)
				}
			}
		})
	}
}

// TestTableRunnerSeedDeterminism: the same seed reproduces identical trial
// values, and distinct seeds drive distinct initial-configuration streams
// (junta's geometric levels are seed-dependent).
func TestTableRunnerSeedDeterminism(t *testing.T) {
	info, err := Lookup("junta")
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed uint64) map[string]float64 {
		r, err := info.New(Config{N: 400, Trials: 1})
		if err != nil {
			t.Fatal(err)
		}
		return r.Run(0, seed)
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed diverged: %v vs %v", a, b)
	}
	distinct := false
	for seed := uint64(8); seed < 16; seed++ {
		if !reflect.DeepEqual(a, run(seed)) {
			distinct = true
			break
		}
	}
	if !distinct {
		t.Error("eight distinct seeds all reproduced seed 7's values — init rng ignored?")
	}
}

// TestTableRunnerSnapshotRestore: a mid-run snapshot taken by the harness
// restores into a run that finishes exactly like the original (the
// snapshot is taken at a predicate boundary without perturbing the
// schedule, so the restored continuation replays the original's remaining
// draws), and two restores from the same snapshot are byte-identical.
func TestTableRunnerSnapshotRestore(t *testing.T) {
	dir := t.TempDir()
	mid := filepath.Join(dir, "mid.json")
	info, err := Lookup("approxmajority")
	if err != nil {
		t.Fatal(err)
	}
	var trialErr error
	fail := func(e error) {
		if trialErr == nil {
			trialErr = e
		}
	}
	const n, seed = 1500, 21
	rA, err := info.New(Config{
		N: n, Trials: 1, Backend: pop.Batched,
		Traj:    &sweep.Trajectory{Snapshot: mid, SnapshotAt: 3},
		OnError: fail,
	})
	if err != nil {
		t.Fatal(err)
	}
	vA := rA.Run(0, seed)
	if trialErr != nil {
		t.Fatal(trialErr)
	}
	if vA["converged"] != 1 || !(vA["time"] > 3) {
		t.Fatalf("original run: %v", vA)
	}

	finals := [2]string{filepath.Join(dir, "fb.json"), filepath.Join(dir, "fc.json")}
	for i, final := range finals {
		r, err := info.New(Config{
			Trials: 1, Backend: pop.Batched,
			Traj:    &sweep.Trajectory{Restore: mid, Snapshot: final},
			OnError: fail,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.N != n {
			t.Fatalf("restored runner N = %d, want %d from snapshot", r.N, n)
		}
		if !strings.Contains(r.Note, "restoring from") {
			t.Errorf("restore note missing: %q", r.Note)
		}
		v := r.Run(0, seed)
		if trialErr != nil {
			t.Fatal(trialErr)
		}
		if v["winner"] != vA["winner"] || math.Abs(v["time"]-vA["time"]) > 1e-9 {
			t.Errorf("restore %d diverged from original: %v vs %v", i, v, vA)
		}
	}
	b0, err := os.ReadFile(finals[0])
	if err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(finals[1])
	if err != nil {
		t.Fatal(err)
	}
	if string(b0) != string(b1) {
		t.Error("two restores from the same snapshot wrote different final snapshots")
	}
}
