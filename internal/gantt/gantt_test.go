package gantt

import (
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/relmodel"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
)

func fixture(t *testing.T) (*taskgraph.Graph, *platform.Platform, []schedule.TaskDecision, *schedule.Result) {
	t.Helper()
	g := taskgraph.Sobel()
	p := platform.Default()
	decisions := make([]schedule.TaskDecision, g.NumTasks())
	for i := range decisions {
		decisions[i] = schedule.TaskDecision{
			PE: i % 3,
			Metrics: relmodel.Metrics{
				AvgExTimeUS: 100 + 10*float64(i), MinExTimeUS: 100,
				PowerW: 1, MTTFHours: 1e5, ErrProb: 0.01,
			},
		}
	}
	res, err := schedule.Run(g, p, g.TopoOrder(), decisions)
	if err != nil {
		t.Fatal(err)
	}
	return g, p, decisions, res
}

func TestChartStructure(t *testing.T) {
	g, p, dec, res := fixture(t)
	out := Chart(g, p, dec, res, 60)
	if !strings.Contains(out, "makespan") {
		t.Fatal("missing header")
	}
	for pe := 0; pe < p.NumPEs(); pe++ {
		if !strings.Contains(out, "PE"+string(rune('0'+pe))) {
			t.Fatalf("missing PE %d row:\n%s", pe, out)
		}
	}
	// Legend maps labels to task names.
	if !strings.Contains(out, "a=GScale") || !strings.Contains(out, "e=CombThr") {
		t.Fatalf("legend incomplete:\n%s", out)
	}
	// Busy PEs carry bars.
	if !strings.Contains(out, "=") {
		t.Fatal("no bars rendered")
	}
}

func TestChartEmptySchedule(t *testing.T) {
	g, p, dec, _ := fixture(t)
	empty := &schedule.Result{}
	if out := Chart(g, p, dec, empty, 40); out != "(empty schedule)\n" {
		t.Fatalf("empty schedule rendered: %q", out)
	}
}

func TestChartWidthClamped(t *testing.T) {
	g, p, dec, res := fixture(t)
	out := Chart(g, p, dec, res, 1) // clamped to ≥ 20
	if len(out) == 0 {
		t.Fatal("clamped chart empty")
	}
}

func TestTaskLabels(t *testing.T) {
	if taskLabel(0) != "a" || taskLabel(25) != "z" || taskLabel(26) != "A" {
		t.Fatal("alphabet labels wrong")
	}
	if taskLabel(99) != "99" {
		t.Fatal("numeric fallback wrong")
	}
}
