package sim

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/hmp"
)

// EventKind classifies tracer events.
type EventKind uint8

// The traced event kinds.
const (
	// EvMigrate is a thread moving between CPUs.
	EvMigrate EventKind = iota
	// EvDVFS is a cluster frequency-level change.
	EvDVFS
	// EvBeat is an application heartbeat.
	EvBeat
	// EvHotplug is a core going offline or coming back online.
	EvHotplug
	// EvCap is a cluster DVFS-ceiling change (thermal capping).
	EvCap
	// EvTemp is a periodic cluster temperature sample from a thermal model.
	EvTemp
	// EvThrottle is a thermal-governor actuation: the governor moved a
	// cluster's DVFS ceiling because of its modeled temperature. The
	// accompanying EvCap event records the same ceiling change; EvThrottle
	// additionally carries the triggering temperature.
	EvThrottle
	// EvMigrateOut is a process checkpoint leaving the machine: its run
	// state was captured for a work-conserving move to another node.
	EvMigrateOut
	// EvMigrateIn is a checkpointed process resuming on this machine. T is
	// the restore time; the event's Until field carries the resume time
	// after the charged checkpoint delay (equal to T for a free move).
	EvMigrateIn
	// EvNodeDown is a machine crash: every resident process was killed
	// without exiting cleanly and all cores lost power (Machine.Fail).
	EvNodeDown
	// EvNodeUp is a crashed machine coming back: the pre-crash online mask
	// is restored and the machine accepts work again (Machine.Heal).
	EvNodeUp
	// EvRecover is a process resuming from a crash-recovery snapshot
	// (Machine.Recover): like EvMigrateIn, Until carries the resume time
	// after the charged restore delay.
	EvRecover
	// EvDecision is a fleet scheduler decision (package decision): Proc
	// carries the application, Decision the monotonic decision ID, and
	// Detail the rendered payload (kind, chosen node, outcome, margin,
	// candidate scores). Opt-in: nothing emits these unless a decision
	// sink feeds the tracer, and the CSV columns they add are gated on
	// their presence so existing trace bytes are untouched.
	EvDecision
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvMigrate:
		return "migrate"
	case EvDVFS:
		return "dvfs"
	case EvBeat:
		return "beat"
	case EvHotplug:
		return "hotplug"
	case EvCap:
		return "cap"
	case EvTemp:
		return "temp"
	case EvThrottle:
		return "throttle"
	case EvMigrateOut:
		return "migrate_out"
	case EvMigrateIn:
		return "migrate_in"
	case EvNodeDown:
		return "node_down"
	case EvNodeUp:
		return "node_up"
	case EvRecover:
		return "recover"
	case EvDecision:
		return "decision"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one traced occurrence on the machine.
type Event struct {
	T      Time
	Kind   EventKind
	Proc   string // owning process (migrate, beat)
	Thread int    // local thread ID (migrate)
	From   int    // source CPU (migrate)
	To     int    // destination CPU (migrate)
	// Cluster and Level describe DVFS and cap events.
	Cluster hmp.ClusterKind
	Level   int
	KHz     int
	// CPU and Online describe hotplug events.
	CPU    int
	Online bool
	// TempC is the modeled cluster temperature (temp, throttle events).
	TempC float64
	// Until is the resume time of a checkpointed process (migrate_in): the
	// restored application runs again once the charged freeze and transfer
	// delay has elapsed. Equal to T when the move was free.
	Until Time
	// Node is the name of the node the event occurred on ("" on a
	// standalone machine). Stamped by the emitting machine, or else by the
	// tracer from its Node tag, so per-node traces stay attributable when
	// combined.
	Node string
	// Decision and Detail describe fleet scheduler decision events
	// (EvDecision): Decision is the monotonic decision ID and Detail the
	// pre-rendered decision payload. Zero/empty on every other kind.
	Decision uint64
	Detail   string
}

// Tracer records machine events up to a bounded capacity; beyond it, events
// are counted but dropped (long experiments generate millions of beats).
// Attach with Machine.SetTracer; one tracer records one machine.
type Tracer struct {
	// Max bounds retained events; 0 selects 1,000,000.
	Max int

	// Node, when non-empty, is stamped onto every recorded event that does
	// not already carry a node name. Node.SetTracer sets it; standalone
	// machines leave it empty and traces render exactly as before.
	Node string

	events  []Event
	dropped int64
}

// Events returns the retained events in order.
func (tr *Tracer) Events() []Event { return tr.events }

// Dropped returns how many events exceeded the retention cap.
func (tr *Tracer) Dropped() int64 { return tr.dropped }

// Record appends an externally produced event (subject to the retention
// cap). Daemons that observe quantities the machine itself does not — e.g. a
// thermal model's cluster temperatures — use this to interleave their events
// with the machine's own.
func (tr *Tracer) Record(e Event) { tr.add(e) }

func (tr *Tracer) add(e Event) {
	max := tr.Max
	if max <= 0 {
		max = 1_000_000
	}
	if len(tr.events) >= max {
		tr.dropped++
		return
	}
	if e.Node == "" {
		e.Node = tr.Node
	}
	tr.events = append(tr.events, e)
}

// WriteCSV renders the trace as CSV (time_us,kind,proc,thread,from,to,
// cluster,khz,temp_c). When any event carries a node tag the output
// appends a trailing node column, and when any event is a scheduler
// decision it appends decision/detail columns after that; traces without
// either render exactly the historical format.
func (tr *Tracer) WriteCSV(w io.Writer) error {
	tag := tr.Node != ""
	dec := false
	for i := range tr.events {
		if tr.events[i].Node != "" {
			tag = true
		}
		if tr.events[i].Kind == EvDecision {
			dec = true
		}
		if tag && dec {
			break
		}
	}
	node := func(e Event) string {
		if tag {
			return "," + e.Node
		}
		return ""
	}
	decCols := func(e Event) string {
		if !dec {
			return ""
		}
		if e.Kind != EvDecision {
			return ",,"
		}
		return fmt.Sprintf(",%d,%s", e.Decision, e.Detail)
	}
	header := "time_us,kind,proc,thread,from,to,cluster,khz,temp_c"
	if tag {
		header += ",node"
	}
	if dec {
		header += ",decision,detail"
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, e := range tr.events {
		var err error
		switch e.Kind {
		case EvMigrate:
			_, err = fmt.Fprintf(w, "%d,%s,%s,%d,%d,%d,,,%s%s\n", e.T, e.Kind, e.Proc, e.Thread, e.From, e.To, node(e), decCols(e))
		case EvDVFS:
			_, err = fmt.Fprintf(w, "%d,%s,,,,,%s,%d,%s%s\n", e.T, e.Kind, e.Cluster, e.KHz, node(e), decCols(e))
		case EvBeat:
			_, err = fmt.Fprintf(w, "%d,%s,%s,,,,,,%s%s\n", e.T, e.Kind, e.Proc, node(e), decCols(e))
		case EvHotplug:
			_, err = fmt.Fprintf(w, "%d,%s,,,%d,,,%t,%s%s\n", e.T, e.Kind, e.CPU, e.Online, node(e), decCols(e))
		case EvCap:
			_, err = fmt.Fprintf(w, "%d,%s,,,,,%s,%d,%s%s\n", e.T, e.Kind, e.Cluster, e.KHz, node(e), decCols(e))
		case EvTemp:
			_, err = fmt.Fprintf(w, "%d,%s,,,,,%s,,%.3f%s%s\n", e.T, e.Kind, e.Cluster, e.TempC, node(e), decCols(e))
		case EvThrottle:
			_, err = fmt.Fprintf(w, "%d,%s,,,,,%s,%d,%.3f%s%s\n", e.T, e.Kind, e.Cluster, e.KHz, e.TempC, node(e), decCols(e))
		case EvMigrateOut:
			_, err = fmt.Fprintf(w, "%d,%s,%s,,,,,,%s%s\n", e.T, e.Kind, e.Proc, node(e), decCols(e))
		case EvMigrateIn:
			_, err = fmt.Fprintf(w, "%d,%s,%s,,,%d,,,%s%s\n", e.T, e.Kind, e.Proc, e.Until, node(e), decCols(e))
		case EvNodeDown, EvNodeUp:
			_, err = fmt.Fprintf(w, "%d,%s,,,,,,,%s%s\n", e.T, e.Kind, node(e), decCols(e))
		case EvRecover:
			_, err = fmt.Fprintf(w, "%d,%s,%s,,,%d,,,%s%s\n", e.T, e.Kind, e.Proc, e.Until, node(e), decCols(e))
		case EvDecision:
			_, err = fmt.Fprintf(w, "%d,%s,%s,,,,,,%s%s\n", e.T, e.Kind, e.Proc, node(e), decCols(e))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is the Trace Event Format record (chrome://tracing,
// https://ui.perfetto.dev).
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders the trace in Chrome Trace Event Format:
// heartbeats and migrations as instant events, cluster frequencies as
// counter tracks. Load the output in chrome://tracing or Perfetto.
// Node-tagged events carry a "node:" name prefix, so merged multi-node
// streams keep distinct counter tracks and stay attributable; untagged
// traces render exactly as before.
func (tr *Tracer) WriteChromeTrace(w io.Writer) error {
	out := make([]chromeEvent, 0, len(tr.events))
	for _, e := range tr.events {
		prefix := ""
		if e.Node != "" {
			prefix = e.Node + ":"
		}
		switch e.Kind {
		case EvMigrate:
			out = append(out, chromeEvent{
				Name: prefix + "migrate " + e.Proc, Phase: "i", TS: e.T, PID: 1, TID: e.To,
				Args: map[string]any{"thread": e.Thread, "from": e.From, "to": e.To},
			})
		case EvDVFS:
			out = append(out, chromeEvent{
				Name: prefix + e.Cluster.String() + "-freq", Phase: "C", TS: e.T, PID: 1,
				Args: map[string]any{"khz": e.KHz},
			})
		case EvBeat:
			out = append(out, chromeEvent{
				Name: prefix + "beat " + e.Proc, Phase: "i", TS: e.T, PID: 2,
			})
		case EvHotplug:
			out = append(out, chromeEvent{
				Name: prefix + "hotplug", Phase: "i", TS: e.T, PID: 1, TID: e.CPU,
				Args: map[string]any{"cpu": e.CPU, "online": e.Online},
			})
		case EvCap:
			out = append(out, chromeEvent{
				Name: prefix + e.Cluster.String() + "-cap", Phase: "C", TS: e.T, PID: 1,
				Args: map[string]any{"khz": e.KHz},
			})
		case EvTemp:
			out = append(out, chromeEvent{
				Name: prefix + e.Cluster.String() + "-temp", Phase: "C", TS: e.T, PID: 1,
				Args: map[string]any{"celsius": e.TempC},
			})
		case EvThrottle:
			out = append(out, chromeEvent{
				Name: prefix + "throttle " + e.Cluster.String(), Phase: "i", TS: e.T, PID: 1,
				Args: map[string]any{"khz": e.KHz, "celsius": e.TempC},
			})
		case EvMigrateOut:
			out = append(out, chromeEvent{
				Name: prefix + "migrate_out " + e.Proc, Phase: "i", TS: e.T, PID: 2,
			})
		case EvMigrateIn:
			out = append(out, chromeEvent{
				Name: prefix + "migrate_in " + e.Proc, Phase: "i", TS: e.T, PID: 2,
				Args: map[string]any{"resume_us": e.Until},
			})
		case EvNodeDown:
			out = append(out, chromeEvent{
				Name: prefix + "node_down", Phase: "i", TS: e.T, PID: 1,
			})
		case EvNodeUp:
			out = append(out, chromeEvent{
				Name: prefix + "node_up", Phase: "i", TS: e.T, PID: 1,
			})
		case EvRecover:
			out = append(out, chromeEvent{
				Name: prefix + "recover " + e.Proc, Phase: "i", TS: e.T, PID: 2,
				Args: map[string]any{"resume_us": e.Until},
			})
		case EvDecision:
			out = append(out, chromeEvent{
				Name: prefix + "decision " + e.Proc, Phase: "i", TS: e.T, PID: 3,
				Args: map[string]any{"id": e.Decision, "detail": e.Detail},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": out})
}

// SetTracer attaches an event tracer to the machine (nil detaches). One
// tracer records one machine: a fleet advances its nodes to each barrier
// one after another, so a tracer attached to two machines would receive
// their events in that order, not in tick order.
func (m *Machine) SetTracer(tr *Tracer) { m.tracer = tr }

// Tracer returns the attached tracer, if any.
func (m *Machine) Tracer() *Tracer { return m.tracer }

// NodeName returns the machine's fleet identity ("" standalone). Daemons
// recording their own trace events stamp it into Event.Node, as the
// machine does for its own, so they stay attributed whatever the tracer's
// Node tag.
func (m *Machine) NodeName() string { return m.nodeName }

// emit records a machine-originated event, stamped with the machine's own
// node identity (callers check m.tracer != nil).
func (m *Machine) emit(e Event) {
	if e.Node == "" {
		e.Node = m.nodeName
	}
	m.tracer.add(e)
}
