// Package gantt renders evaluated schedules as per-PE ASCII Gantt charts,
// so optimized mappings can be inspected visually.
package gantt

import (
	"fmt"
	"strings"

	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
)

// Chart renders the schedule as one text row per PE. width is the number
// of character cells representing the makespan.
func Chart(g *taskgraph.Graph, p *platform.Platform, decisions []schedule.TaskDecision, res *schedule.Result, width int) string {
	if width < 20 {
		width = 20
	}
	if res.MakespanUS <= 0 {
		return "(empty schedule)\n"
	}
	scale := float64(width) / res.MakespanUS

	type bar struct {
		task       int
		start, end int
	}
	perPE := make([][]bar, p.NumPEs())
	for t := 0; t < g.NumTasks(); t++ {
		pe := decisions[t].PE
		b := bar{
			task:  t,
			start: int(res.StartUS[t] * scale),
			end:   int(res.EndUS[t] * scale),
		}
		if b.end <= b.start {
			b.end = b.start + 1
		}
		perPE[pe] = append(perPE[pe], b)
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "schedule: makespan %.1f µs, peak power %.2f W\n", res.MakespanUS, res.PeakPowerW)
	for pe := 0; pe < p.NumPEs(); pe++ {
		row := []byte(strings.Repeat(".", width+1))
		for _, b := range perPE[pe] {
			label := taskLabel(b.task)
			for c := b.start; c < b.end && c < len(row); c++ {
				row[c] = '='
			}
			// Stamp the task label into the bar where it fits.
			for i := 0; i < len(label) && b.start+i < b.end && b.start+i < len(row); i++ {
				row[b.start+i] = label[i]
			}
		}
		fmt.Fprintf(&sb, "  PE%-2d %-14s |%s|\n", pe, p.PEs[pe].Type.Name, string(row))
	}
	fmt.Fprintf(&sb, "  %20s 0%s%.0fµs\n", "", strings.Repeat(" ", width-6), res.MakespanUS)
	// Legend: task id → name, ordered.
	fmt.Fprintf(&sb, "  tasks:")
	for t := 0; t < g.NumTasks(); t++ {
		fmt.Fprintf(&sb, " %s=%s", taskLabel(t), g.Task(t).Name)
		if t >= 11 && g.NumTasks() > 13 {
			fmt.Fprintf(&sb, " … (%d more)", g.NumTasks()-t-1)
			break
		}
	}
	sb.WriteByte('\n')
	return sb.String()
}

// taskLabel returns a short printable label for a task index: a-z, then
// A-Z, then digits repeated.
func taskLabel(t int) string {
	const alpha = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
	if t < len(alpha) {
		return string(alpha[t])
	}
	return fmt.Sprintf("%d", t)
}
