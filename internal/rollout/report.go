package rollout

import (
	"fmt"
	"strings"

	"tmo/internal/textplot"
	"tmo/internal/trace"
	"tmo/internal/tsdb"
	"tmo/internal/vclock"
)

// CandidateStageReport is one candidate's telemetry and verdict for one
// stage of the race.
type CandidateStageReport struct {
	// Policy names the candidate.
	Policy string
	// Windows is how many barrier windows the candidate's cohort
	// contributed samples.
	Windows int
	// Stats is the candidate-wide cumulative cohort telemetry at the
	// verdict.
	Stats CohortStats
	// Cohorts breaks Stats down per device class, sorted by class.
	Cohorts []CohortStats
	// SavingsFrac is the cohort's mean weighted resident-memory savings
	// relative to the control cohort over the stage.
	SavingsFrac float64
	// Verdict is "advance", "complete", "dropped", or "idle" (no hosts
	// raced this stage).
	Verdict string
	// Tripped names the (last) guardrail that dropped a cohort, if any.
	Tripped string
	// Detail is the tripped guardrail's human-readable evidence.
	Detail string
	// DroppedDevices lists device classes the candidate was excluded from,
	// sorted.
	DroppedDevices []string
}

// StageReport is one stage's verdict and the telemetry it was judged on.
type StageReport struct {
	// Stage is the plan entry the report covers.
	Stage Stage
	// Verdict is "advance", "complete", or "rollback".
	Verdict string
	// Candidates holds one report per candidate, in Config.Candidates
	// order.
	Candidates []CandidateStageReport
}

// CandidateOutcome is one candidate policy's fate over the whole rollout.
type CandidateOutcome struct {
	// Policy names the candidate; Mode is its offload mode.
	Policy string
	Mode   string
	// Dropped means the candidate tripped out of the race everywhere.
	Dropped bool
	// Tripped/Detail record the (last) guardrail that dropped a cohort.
	Tripped string
	Detail  string
	// ExcludedDevices lists device classes the candidate was dropped from.
	ExcludedDevices []string
	// MeanSavingsFrac is the lifetime mean weighted savings — the promotion
	// score.
	MeanSavingsFrac float64
	// Windows is how many barrier windows contributed to the score.
	Windows int
	// Promoted marks the winner of a completed rollout.
	Promoted bool
}

// HostReport is one host's lifecycle summary.
type HostReport struct {
	Index  int
	App    string
	Device string
	// Fidelity is the host's layout assignment: fleet.FidelityFull or
	// fleet.FidelityTwin.
	Fidelity string
	// Crashes/Rejoins count chaos-driven churn; Rebuilds counts
	// mode-changing policy pushes (each also bumps the incarnation).
	Crashes  int
	Rejoins  int
	Rebuilds int
	OOMKills int64
	// SwapLatched reports whether the host latched swap exhaustion.
	SwapLatched bool
	// Policy names the policy the host ended the run on.
	Policy string
	// OnCandidate reports whether the host ended the run on a candidate
	// policy (false: baseline/control).
	OnCandidate bool
}

// Result is the rollout scorecard.
type Result struct {
	// State is the terminal controller state (completed or rolled back).
	State State
	// TrippedGuardrail names the guardrail that forced rollback, if any.
	TrippedGuardrail string
	// Promoted names the winning policy of a completed rollout.
	Promoted string
	// Stages holds one report per stage verdict, in plan order.
	Stages []StageReport
	// Candidates summarizes every candidate's fate, in Config.Candidates
	// order.
	Candidates []CandidateOutcome
	// Hosts summarizes every fleet member in population order.
	Hosts []HostReport
	// Events is the deterministic rollout decision log.
	Events []trace.Record
	// Flights holds the flight-recorder bundles cut during the run
	// (guardrail trips, OOMs, crashes), in dump order. Requires
	// Config.Obs; empty otherwise.
	Flights []tsdb.FlightBundle
	// CanaryHosts is the size of the first-stage cohort.
	CanaryHosts int
	// FullHosts/TwinHosts split the population by fidelity (TwinHosts is 0
	// without Config.Twin).
	FullHosts int
	TwinHosts int
	// RecalibrationAdvised counts twin-drift burn alerts over the run:
	// nonzero means the twin calibration drifted past tolerance against
	// its full-fidelity anchors and the surface should be re-probed before
	// the artifact is reused.
	RecalibrationAdvised int64
	// Window is the barrier window length.
	Window vclock.Duration
	// Duration is the total virtual time simulated.
	Duration vclock.Duration
}

// Completed reports whether a candidate policy reached the full fleet.
func (r Result) Completed() bool { return r.State == StateCompleted }

// OOMKillsOutsideCanary counts OOM kills on hosts beyond the canary cohort —
// the blast-radius number a staged rollout exists to keep at zero.
func (r Result) OOMKillsOutsideCanary() int64 {
	var n int64
	for _, h := range r.Hosts {
		if h.Index >= r.CanaryHosts {
			n += h.OOMKills
		}
	}
	return n
}

// Rebuilds counts mode-changing policy rebuilds across the fleet.
func (r Result) Rebuilds() int {
	n := 0
	for _, h := range r.Hosts {
		n += h.Rebuilds
	}
	return n
}

// EventLog renders the decision log one event per line. Same config and
// seed produce byte-identical output — the regression tests pin this.
func (r Result) EventLog() string { return trace.Lines(r.Events) }

// Render formats the scorecard for terminal output.
func (r Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rollout %s after %s (%d barrier windows of %s)\n",
		r.State, r.Duration, int(r.Duration/r.Window), r.Window)
	if r.TrippedGuardrail != "" {
		fmt.Fprintf(&b, "guardrail tripped: %s\n", r.TrippedGuardrail)
	}
	if r.Promoted != "" {
		fmt.Fprintf(&b, "promoted: %s\n", r.Promoted)
	}
	if r.TwinHosts > 0 {
		fmt.Fprintf(&b, "fidelity: %d full / %d twin hosts\n", r.FullHosts, r.TwinHosts)
	}
	if r.RecalibrationAdvised > 0 {
		fmt.Fprintf(&b, "twin recalibration advised: %d drift-burn alerts\n", r.RecalibrationAdvised)
	}
	b.WriteString("\n")

	rows := [][]string{{"stage", "frac", "policy", "hosts", "windows", "psi-avg", "rps-ratio", "oom", "latched", "savings", "verdict"}}
	for _, s := range r.Stages {
		for _, cr := range s.Candidates {
			verdict := cr.Verdict
			if cr.Tripped != "" {
				verdict += " (" + cr.Tripped + ")"
			}
			if len(cr.DroppedDevices) > 0 && cr.Verdict != "dropped" {
				verdict += " -" + strings.Join(cr.DroppedDevices, ",-")
			}
			rows = append(rows, []string{
				s.Stage.Name,
				fmt.Sprintf("%.0f%%", 100*s.Stage.Frac),
				cr.Policy,
				fmt.Sprintf("%d", cr.Stats.Hosts),
				fmt.Sprintf("%d", cr.Windows),
				fmt.Sprintf("%.4f", cr.Stats.MemPressure),
				fmt.Sprintf("%.3f", cr.Stats.RPSRatio),
				fmt.Sprintf("%d", cr.Stats.OOMKills),
				fmt.Sprintf("%d", cr.Stats.SwapLatched),
				fmt.Sprintf("%.1f%%", 100*cr.SavingsFrac),
				verdict,
			})
		}
	}
	b.WriteString(textplot.Table(rows))
	b.WriteString("\n")

	// The host table stays readable at fleet scale: big populations show
	// the head (where canary and full-fidelity anchors live) and a summary
	// line for the rest.
	const hostTableCap = 32
	shown := r.Hosts
	if len(shown) > hostTableCap+8 {
		shown = shown[:hostTableCap]
	}
	rows = [][]string{{"host", "app", "dev", "fid", "crashes", "rejoins", "rebuilds", "oom", "latched", "policy"}}
	for _, h := range shown {
		rows = append(rows, []string{
			fmt.Sprintf("%d", h.Index),
			h.App,
			h.Device,
			h.Fidelity,
			fmt.Sprintf("%d", h.Crashes),
			fmt.Sprintf("%d", h.Rejoins),
			fmt.Sprintf("%d", h.Rebuilds),
			fmt.Sprintf("%d", h.OOMKills),
			fmt.Sprintf("%v", h.SwapLatched),
			h.Policy,
		})
	}
	b.WriteString(textplot.Table(rows))
	if n := len(r.Hosts) - len(shown); n > 0 {
		var crashes, rebuilds int
		var ooms int64
		for _, h := range r.Hosts[len(shown):] {
			crashes += h.Crashes
			rebuilds += h.Rebuilds
			ooms += h.OOMKills
		}
		fmt.Fprintf(&b, "... %d more hosts (crashes=%d rebuilds=%d oom=%d)\n",
			n, crashes, rebuilds, ooms)
	}
	return b.String()
}
