// Package module defines Kalis' module framework (§IV-B4): sensing and
// detection modules, the registry used for configuration-driven
// instantiation by name (the Go analogue of the paper's Java
// reflection), and the Module Manager that routes packet events and
// dynamically activates or deactivates modules as the Knowledge Base
// changes.
package module

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"kalis/internal/core/knowledge"
	"kalis/internal/flow"
	"kalis/internal/packet"
)

// Kind distinguishes sensing from detection modules.
type Kind int

// Module kinds.
const (
	KindSensing Kind = iota + 1
	KindDetection
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindSensing:
		return "sensing"
	case KindDetection:
		return "detection"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Alert is a detection event raised by a detection module.
type Alert struct {
	// Time is the (virtual) time of detection.
	Time time.Time
	// Attack is the canonical attack name (see internal/attack).
	Attack string
	// Module is the name of the module that raised the alert.
	Module string
	// Victim is the attacked entity, when identified.
	Victim packet.NodeID
	// Suspects are the entities the module considers responsible;
	// response actions (revocation) target them.
	Suspects []packet.NodeID
	// Confidence in [0,1].
	Confidence float64
	// Details is a human-readable explanation.
	Details string
}

// Context carries the dependencies injected into an active module.
type Context struct {
	// KB is the node's Knowledge Base.
	KB *knowledge.Base
	// Flows is the flow table the manager updates once per packet before
	// module fan-out; detection modules acquire their endpoint trackers
	// from it and own no evidence themselves. Never nil.
	Flows *flow.Table
	// Emit raises a detection alert.
	Emit func(Alert)
	// Params are the module parameters from the configuration file.
	Params map[string]string
	// KnowledgeDriven reports whether the node runs in knowledge-driven
	// mode; when false (traditional-IDS baseline, §VI-B) modules must
	// not rely on knowggets and fall back to naive techniques.
	KnowledgeDriven bool
}

// Module is a Kalis module. A module has one caller, its manager, and
// the manager enters it on one goroutine at a time: Activate,
// Deactivate, HandlePacket and — for modules that implement
// KnowledgeHandler — HandleKnowledge all run under the manager's
// dispatch token, never concurrently and never re-entrantly, whichever
// goroutine holds the token at the moment (the shard's capture or ring
// goroutine, or a Knowledge Base writer that found the shard idle). A
// module therefore needs no lock of its own and no "am I active" check:
// HandlePacket and HandleKnowledge are only ever called between an
// Activate and the next Deactivate.
type Module interface {
	// Name returns the unique module name used in configuration files.
	Name() string
	// Kind reports whether this is a sensing or detection module.
	Kind() Kind
	// WatchLabels lists the knowgget labels whose changes can affect
	// Required; the manager re-evaluates activation when they change.
	WatchLabels() []string
	// Required reports, given the current knowledge, whether the
	// module's services are needed (§IV-B4: "each module is able,
	// given a particular instance of the Knowledge Base, to determine
	// whether its services are required").
	Required(kb *knowledge.Base) bool
	// Activate is called when the manager activates the module.
	Activate(ctx *Context)
	// Deactivate is called when the manager deactivates the module.
	Deactivate()
	// HandlePacket processes one captured packet while active.
	HandlePacket(c *packet.Captured)
}

// KnowledgeHandler is the optional interface of a module that consumes
// knowggets as evidence (as opposed to WatchLabels, which only decide
// Required). The manager subscribes to KnowledgeLabels on the module's
// behalf and hands every change of one of them — local or from a peer,
// any creator or entity, multilevel children included — to
// HandleKnowledge while the module is active, in the order the
// Knowledge Base accepted them, at a packet boundary of the module's
// shard. Changes accepted while it was inactive are not replayed: a
// module that needs them reads the Knowledge Base in Activate. Modules
// do not subscribe to the Knowledge Base themselves: a subscription
// runs on the writer's goroutine.
type KnowledgeHandler interface {
	// KnowledgeLabels lists the labels to be handed over; it is read
	// once, at install time.
	KnowledgeLabels() []string
	// HandleKnowledge receives one accepted change while active.
	HandleKnowledge(kg knowledge.Knowgget)
}

// Factory builds a module instance with the given parameters.
type Factory func(params map[string]string) (Module, error)

// Registry maps module names to factories, enabling the
// configuration-file-driven instantiation of §V.
type Registry struct {
	mu        sync.RWMutex
	factories map[string]Factory
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[string]Factory)}
}

// Register adds a factory under the given name. Re-registering a name
// replaces the factory (supporting module upgrades without recompiling
// the rest of the system).
func (r *Registry) Register(name string, f Factory) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.factories[name] = f
}

// New instantiates a registered module by name.
func (r *Registry) New(name string, params map[string]string) (Module, error) {
	r.mu.RLock()
	f, ok := r.factories[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("module: unknown module %q", name)
	}
	return f(params)
}

// Names returns all registered module names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.factories))
	for name := range r.factories {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
