// Package knowledge implements Kalis' Knowledge Base: the centralized
// store of knowggets ("knowledge nuggets") describing the features of
// the monitored entities and networks (§IV-B3).
//
// Following the paper's implementation (§V, Fig. 5b), each knowgget
// k = ⟨label, value, creator, entity⟩ is stored as a key/value pair of
// strings with the key encoded as "creator$label@entity" (the "@entity"
// suffix is present only for entity-specific knowggets). Multilevel
// knowggets are flattened with dot notation ("TrafficFrequency.TCPSYN").
// Lookups exploit the encoding: local vs collective knowggets by
// creator prefix, entity-specific knowggets by suffix, single knowggets
// by exact match.
package knowledge

import (
	"maps"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Well-known knowgget labels shared by the sensing modules (producers)
// and detection modules (consumers).
const (
	LabelMultihop         = "Multihop"         // bool: topology is multi-hop
	LabelMobility         = "Mobility"         // bool: network is mobile
	LabelMonitoredNodes   = "MonitoredNodes"   // int: distinct entities seen
	LabelSignalStrength   = "SignalStrength"   // float per entity: smoothed RSSI dBm
	LabelTrafficFrequency = "TrafficFrequency" // multilevel: packets/s per kind
	LabelMediums          = "Mediums"          // multilevel: observed mediums
	LabelEmergentSource   = "EmergentSource"   // per entity: traffic source with no inbound
	LabelSuspectBlackhole = "SuspectBlackhole" // per entity: local blackhole suspicion
	LabelEncrypted        = "Encrypted"        // bool: link-layer security observed
	LabelModuleHealth     = "ModuleHealth"     // multilevel: supervisor state per module
)

// Knowgget is one piece of knowledge: a labelled value with provenance.
type Knowgget struct {
	// Label describes the information, dot-flattened for multilevel
	// knowggets (e.g. "TrafficFrequency.TCPSYN").
	Label string
	// Value is the string-encoded value.
	Value string
	// Creator is the Kalis node that created the knowgget.
	Creator string
	// Entity is the monitored entity the knowgget refers to, or "".
	Entity string
	// Collective marks the knowgget for synchronization to peer Kalis
	// nodes.
	Collective bool
	// Version is the creator-local monotonic version of this knowgget,
	// assigned when the creator accepts a collective change. The
	// anti-entropy gossip layer compares per-creator version vectors
	// built from these to pull only missing deltas. Version 0 means
	// "unversioned" (local, non-collective state never gossiped).
	Version uint64
}

// Key returns the encoded storage key "creator$label@entity". The
// separator bytes '$' and '@' (and the escape byte '%') are
// percent-escaped inside each component, so ParseKey(k.Key()) is
// lossless for any creator/label/entity — the durable snapshot and
// journal formats depend on this round trip.
func (k Knowgget) Key() string {
	//lint:ignore hotalloc storage keys are composite strings by design ("creator$label@entity", §V); Key runs per put/lookup, both change- or gate-bounded
	key := EscapeComponent(k.Creator) + "$" + EscapeComponent(k.Label)
	if k.Entity != "" {
		//lint:ignore hotalloc see above: composite storage keys are the KB's string-keyed design
		key += "@" + EscapeComponent(k.Entity)
	}
	return key
}

// ParseKey decodes a storage key back into (creator, label, entity).
// It is the exact inverse of Knowgget.Key.
func ParseKey(key string) (creator, label, entity string) {
	if i := strings.IndexByte(key, '$'); i >= 0 {
		creator, key = key[:i], key[i+1:]
	}
	if i := strings.LastIndexByte(key, '@'); i >= 0 {
		key, entity = key[:i], key[i+1:]
	}
	return unescapeComponent(creator), unescapeComponent(key), unescapeComponent(entity)
}

// keyReserved are the bytes that cannot appear raw inside a key
// component: the two separators and the escape byte itself.
const keyReserved = "$@%"

// EscapeComponent percent-escapes the key-reserved bytes of one key
// component. Components without reserved bytes (the overwhelmingly
// common case) are returned unchanged without allocating.
func EscapeComponent(s string) string {
	if !strings.ContainsAny(s, keyReserved) {
		return s
	}
	//lint:ignore hotalloc escape slow path: only taken for components carrying separator bytes, which no built-in module emits
	var b strings.Builder
	b.Grow(len(s) + 4)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '$' || c == '@' || c == '%' {
			b.WriteByte('%')
			b.WriteString(hexDigits[c>>4 : c>>4+1])
			b.WriteString(hexDigits[c&0xf : c&0xf+1])
			continue
		}
		b.WriteByte(c)
	}
	return b.String()
}

const hexDigits = "0123456789abcdef"

// unescapeComponent reverses EscapeComponent; malformed escapes are
// kept verbatim (ParseKey never fails — garbage in, garbage out).
func unescapeComponent(s string) string {
	if !strings.ContainsRune(s, '%') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '%' && i+2 < len(s) {
			hi := strings.IndexByte(hexDigits, lowerHex(s[i+1]))
			lo := strings.IndexByte(hexDigits, lowerHex(s[i+2]))
			if hi >= 0 && lo >= 0 {
				b.WriteByte(byte(hi<<4 | lo))
				i += 2
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

func lowerHex(c byte) byte {
	if c >= 'A' && c <= 'F' {
		return c + ('a' - 'A')
	}
	return c
}

// SubscribeFunc is notified of a knowgget change (insert or update).
type SubscribeFunc func(Knowgget)

// SyncFunc receives collective knowggets that must be propagated to
// peer Kalis nodes; it is installed by the collective-knowledge layer.
type SyncFunc func(Knowgget)

// Journal operations, as seen by a JournalFunc.
const (
	// OpPut records an accepted insert or update.
	OpPut = byte(1)
	// OpDelete records a removal; only the key accompanies it.
	OpDelete = byte(2)
)

// JournalFunc receives every accepted mutation of the Knowledge Base —
// OpPut with the stored knowgget, or OpDelete with only the key set on
// a zero knowgget via Key(). The persistence layer installs it as the
// KB's write-ahead hook; rejected or no-op mutations are not reported.
type JournalFunc func(op byte, key string, k Knowgget)

// Base is the Knowledge Base of one Kalis node.
type Base struct {
	local string

	mu        sync.RWMutex
	entries   map[string]Knowgget
	static    map[string]bool // labels provided as a-priori knowledge
	defaults  map[string]bool // keys whose current value is an absence-default
	localVer  uint64          // last version assigned to a local collective change
	subsAll   []SubscribeFunc
	subs      map[string][]SubscribeFunc // by label; these lists and subsAll are copy-on-write (notifyLists)
	syncFn    SyncFunc
	journalFn JournalFunc
}

// NewBase creates a Knowledge Base for the Kalis node with the given
// identifier.
func NewBase(localID string) *Base {
	return &Base{
		local:    localID,
		entries:  make(map[string]Knowgget),
		static:   make(map[string]bool),
		defaults: make(map[string]bool),
		subs:     make(map[string][]SubscribeFunc),
	}
}

// PutStatic stores an a-priori knowgget from the configuration file
// (§IV-B3 "Static Knowledge") and marks its label static. Sensing
// modules whose only job is to discover a statically-known feature use
// IsStatic to declare themselves not required — e.g. providing
// "Mobility = false" statically means Kalis never tries to detect
// mobility.
func (b *Base) PutStatic(label, entity, value string) bool {
	b.mu.Lock()
	b.static[label] = true
	b.mu.Unlock()
	return b.store(Knowgget{Label: label, Value: value, Creator: b.local, Entity: entity})
}

// IsStatic reports whether the label was provided as a-priori
// knowledge.
func (b *Base) IsStatic(label string) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.static[label]
}

// LocalID returns the local Kalis node identifier.
func (b *Base) LocalID() string { return b.local }

// SetSync installs the collective-knowledge propagation hook.
func (b *Base) SetSync(fn SyncFunc) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.syncFn = fn
}

// SetJournal installs the write-ahead hook notified of every accepted
// Put and Delete. Install it after any Restore, so recovered state is
// not re-journaled.
func (b *Base) SetJournal(fn JournalFunc) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.journalFn = fn
}

// Put stores a local knowgget with the given label and value. It
// returns true if the stored value changed.
func (b *Base) Put(label, value string) bool {
	return b.store(Knowgget{Label: label, Value: value, Creator: b.local})
}

// PutEntity stores a local entity-specific knowgget.
func (b *Base) PutEntity(label, entity, value string) bool {
	return b.store(Knowgget{Label: label, Value: value, Creator: b.local, Entity: entity})
}

// MaxCollectiveBytes bounds a collective knowgget's label, entity and
// value together. The gossip layer ships every knowgget inside one UDP
// datagram, whose read buffer is 64 KiB; the bound leaves 4 KiB for the
// message header, the creator's and sender's names (up to 1 KiB each)
// and the seal. A longer one would be sent, fail to open and be asked
// for again in every digest exchange.
const MaxCollectiveBytes = 60 << 10

// fitsDatagram reports whether a collective knowgget is within
// MaxCollectiveBytes.
func fitsDatagram(k *Knowgget) bool {
	return len(k.Label)+len(k.Entity)+len(k.Value) <= MaxCollectiveBytes
}

// PutCollective stores a local knowgget marked for synchronization to
// peer Kalis nodes. One whose label, entity and value together pass
// MaxCollectiveBytes is refused (false).
func (b *Base) PutCollective(label, entity, value string) bool {
	return b.store(Knowgget{Label: label, Value: value, Creator: b.local, Entity: entity, Collective: true})
}

// Entry is one local knowgget's place in the Knowledge Base with its
// storage key built once: a module that publishes the same label and
// entity over and over (a rate per traffic kind, a signal strength per
// transmitter) holds the entry and puts values through PutEntry, which
// stores, journals, versions and notifies exactly as Put, PutEntity and
// PutCollective do.
type Entry struct {
	key string
	k   Knowgget
}

// Entry returns the entry of the local knowgget (label, entity); with
// collective set, puts through it are PutCollective puts.
func (b *Base) Entry(label, entity string, collective bool) Entry {
	k := Knowgget{Label: label, Creator: b.local, Entity: entity, Collective: collective}
	return Entry{key: k.Key(), k: k}
}

// PutEntry stores value under the entry. It returns true if the stored
// value changed.
func (b *Base) PutEntry(e *Entry, value string) bool {
	k := e.k
	k.Value = value
	return b.storeKeyed(e.key, k, putEvidence)
}

// PutBool and PutInt are typed conveniences over Put.
func (b *Base) PutBool(label string, v bool) bool { return b.Put(label, strconv.FormatBool(v)) }

// PutInt stores an integer-valued local knowgget.
func (b *Base) PutInt(label string, v int) bool { return b.Put(label, strconv.Itoa(v)) }

// PutBoolDefault stores an absence-default boolean: a sensing module's
// declaration that, having watched enough traffic without evidence of
// a feature, the feature is absent. Unlike PutBool it never overwrites
// an evidence-backed value — on a sharded node each shard runs its own
// sensing instances over a partition of the traffic, and one shard's
// "never saw multihop forwarding" must not clobber another shard's
// forwarding-chain proof. Defaults may replace defaults; any regular
// Put pins the key so later defaults are ignored. Provenance is kept
// in memory only, so values restored from a snapshot count as pinned.
func (b *Base) PutBoolDefault(label string, v bool) bool {
	return b.storeWith(Knowgget{Label: label, Value: strconv.FormatBool(v), Creator: b.local}, putDefault)
}

// PutIntMax stores an integer-valued local knowgget only if the label
// is unset or v exceeds the stored value. Per-shard sensing instances
// each count their own traffic partition; a shared high-water mark is
// a sound lower bound on the union where last-writer-wins is not.
func (b *Base) PutIntMax(label string, v int) bool {
	return b.storeWith(Knowgget{Label: label, Value: strconv.Itoa(v), Creator: b.local}, putMax)
}

// AcceptGossip stores a collective knowgget received from the peer
// Kalis node identified by from, through the anti-entropy gossip layer.
// It admits relayed knowggets whose creator is a third node (epidemic
// dissemination depends on relaying — the shared-passphrase envelope is
// the trust boundary), and keeps the §IV-B3 ownership invariant ("a
// node can only update knowggets that it originally generated") where
// it matters: a knowgget claiming the local node as creator is always
// rejected, so no peer can overwrite local knowledge. Staleness is
// resolved by the creator-local version: the knowgget is rejected
// unless its Version is strictly newer than the stored entry's.
// Gossiped state never collides with the local default-vs-evidence
// provenance because remote creators key their own namespace. It
// returns true if the knowgget was accepted (stored or refreshed); one
// past MaxCollectiveBytes never is.
func (b *Base) AcceptGossip(from string, k Knowgget) bool {
	if from == b.local || k.Creator == b.local || k.Creator == "" || k.Version == 0 || !fitsDatagram(&k) {
		return false
	}
	k.Collective = true
	key := k.Key()
	b.mu.Lock()
	old, existed := b.entries[key]
	if existed && old.Version >= k.Version {
		b.mu.Unlock()
		return false
	}
	b.entries[key] = k
	var subs subLists
	if !existed || old.Value != k.Value {
		subs = b.notifyLists(k.Label)
	}
	journalFn := b.journalFn
	b.mu.Unlock()

	if journalFn != nil {
		journalFn(OpPut, key, k)
	}
	subs.notify(k)
	return true
}

// Digest returns the per-creator version vector over the collective
// knowggets: for every creator (the local node included) the highest
// Version held. The gossip layer exchanges these digests instead of
// snapshots; a creator missing from the map is simply unknown here.
func (b *Base) Digest() map[string]uint64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make(map[string]uint64, 8)
	for _, k := range b.entries {
		if !k.Collective || k.Version == 0 {
			continue
		}
		if k.Version > out[k.Creator] {
			out[k.Creator] = k.Version
		}
	}
	return out
}

// CollectiveSince returns the collective knowggets created by creator
// with Version > since, sorted by ascending Version. Because versions
// are assigned per accepted change and stale versions of a key are
// overwritten in place, this slice is exactly the delta a peer whose
// watermark for creator is since needs to catch up.
func (b *Base) CollectiveSince(creator string, since uint64) []Knowgget {
	b.mu.RLock()
	var out []Knowgget
	for _, k := range b.entries {
		if k.Collective && k.Creator == creator && k.Version > since {
			out = append(out, k)
		}
	}
	b.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Version < out[j].Version })
	return out
}

// LocalVersion returns the last version assigned to a local collective
// change — the local node's own entry in the digest, tracked even when
// the highest-versioned knowggets have been overwritten in place.
func (b *Base) LocalVersion() uint64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.localVer
}

// Write modes for storeWith: evidence always wins and pins the key,
// defaults yield to anything non-default, max writes are monotonic.
type putMode int

const (
	putEvidence putMode = iota
	putDefault
	putMax
)

func (b *Base) store(k Knowgget) bool { return b.storeWith(k, putEvidence) }

func (b *Base) storeWith(k Knowgget, mode putMode) bool { return b.storeKeyed(k.Key(), k, mode) }

// storeKeyed stores k under key, which must be k.Key().
func (b *Base) storeKeyed(key string, k Knowgget, mode putMode) bool {
	if k.Collective && !fitsDatagram(&k) {
		return false
	}
	b.mu.Lock()
	old, existed := b.entries[key]
	switch mode {
	case putDefault:
		if existed && !b.defaults[key] {
			b.mu.Unlock()
			return false
		}
		b.defaults[key] = true
	case putMax:
		if existed {
			cur, err := strconv.Atoi(old.Value)
			next, err2 := strconv.Atoi(k.Value)
			if err == nil && err2 == nil && next <= cur {
				b.mu.Unlock()
				return false
			}
		}
	default:
		delete(b.defaults, key)
	}
	if existed && old.Value == k.Value && old.Collective == k.Collective {
		b.mu.Unlock()
		return false
	}
	if k.Collective && k.Creator == b.local {
		// Every accepted local collective change gets the next
		// creator-local version; no-op puts (caught above) never burn
		// one, so the version stream is dense per accepted change.
		b.localVer++
		k.Version = b.localVer
	}
	b.entries[key] = k
	subs := b.notifyLists(k.Label)
	syncFn := b.syncFn
	journalFn := b.journalFn
	b.mu.Unlock()

	if journalFn != nil {
		journalFn(OpPut, key, k)
	}
	subs.notify(k)
	if k.Collective && k.Creator == b.local && syncFn != nil {
		syncFn(k)
	}
	return true
}

// subLists are the handlers one change reaches, in delivery order: the
// SubscribeAll list, the label's, then its multilevel parent's.
type subLists [3][]SubscribeFunc

// notifyLists must be called with b.mu held; the lists are walked after
// unlock so handlers may re-enter the Base.
func (b *Base) notifyLists(label string) subLists {
	lists := subLists{b.subsAll, b.subs[label]}
	// Multilevel: a subscription to "TrafficFrequency" also fires for
	// "TrafficFrequency.TCPSYN".
	if i := strings.IndexByte(label, '.'); i > 0 {
		lists[2] = b.subs[label[:i]]
	}
	return lists
}

func (l subLists) notify(k Knowgget) {
	for _, fns := range l {
		for _, fn := range fns {
			fn(k)
		}
	}
}

// Delete removes a knowgget by key. It returns true if present.
func (b *Base) Delete(key string) bool {
	b.mu.Lock()
	if _, ok := b.entries[key]; !ok {
		b.mu.Unlock()
		return false
	}
	delete(b.entries, key)
	delete(b.defaults, key)
	journalFn := b.journalFn
	b.mu.Unlock()
	if journalFn != nil {
		journalFn(OpDelete, key, Knowgget{})
	}
	return true
}

// Get returns the knowgget stored under the exact key.
func (b *Base) Get(key string) (Knowgget, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	k, ok := b.entries[key]
	return k, ok
}

// Value returns the raw string value of a local knowgget by label.
func (b *Base) Value(label string) (string, bool) {
	//lint:ignore hotalloc one small key concat per KB read; an interned-key index is not worth the complexity at current gate-check rates
	k, ok := b.Get(EscapeComponent(b.local) + "$" + EscapeComponent(label))
	return k.Value, ok
}

// EntityValue returns the raw string value of a local entity-specific
// knowgget.
func (b *Base) EntityValue(label, entity string) (string, bool) {
	k, ok := b.Get(Knowgget{Creator: b.local, Label: label, Entity: entity}.Key())
	return k.Value, ok
}

// Bool parses a local knowgget as bool; ok is false when the knowgget
// is absent or fails to parse as the requested type.
func (b *Base) Bool(label string) (v, ok bool) {
	s, ok := b.Value(label)
	if !ok {
		return false, false
	}
	parsed, err := strconv.ParseBool(s)
	if err != nil {
		return false, false
	}
	return parsed, true
}

// Int parses a local knowgget as int.
func (b *Base) Int(label string) (int, bool) {
	s, ok := b.Value(label)
	if !ok {
		return 0, false
	}
	parsed, err := strconv.Atoi(s)
	if err != nil {
		return 0, false
	}
	return parsed, true
}

// EntityFloat parses a local entity-specific knowgget as float64.
func (b *Base) EntityFloat(label, entity string) (float64, bool) {
	s, ok := b.EntityValue(label, entity)
	if !ok {
		return 0, false
	}
	parsed, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return parsed, true
}

// QueryPrefix returns all knowggets whose key begins with prefix,
// sorted by key. "Looking up local (or collective) knowggets only
// requires searching for the prefix matching (or not matching) the
// identifier of the local Kalis node" (§V).
func (b *Base) QueryPrefix(prefix string) []Knowgget {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var keys []string
	for key := range b.entries {
		if strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
	}
	return b.sortedByKey(keys)
}

// QueryLocal returns all knowggets created by the local node.
func (b *Base) QueryLocal() []Knowgget { return b.QueryPrefix(EscapeComponent(b.local) + "$") }

// AppendLocal appends the local knowggets with exactly the given label
// (a multilevel parent does not match its children) to dst, in no
// particular order. It walks the Base under the read lock but neither
// copies nor sorts it.
func (b *Base) AppendLocal(dst []Knowgget, label string) []Knowgget {
	b.mu.RLock()
	for _, k := range b.entries {
		if k.Creator == b.local && k.Label == label {
			dst = append(dst, k)
		}
	}
	b.mu.RUnlock()
	return dst
}

// Subscribe registers fn to be notified of changes to knowggets with
// the given label (any creator or entity). Subscribing to a multilevel
// parent label also fires for its children. The Module Manager and the
// dynamic detection-module configuration are built on this mechanism
// (§V "Dynamic Detection Module Configuration").
func (b *Base) Subscribe(label string, fn SubscribeFunc) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.subs[label] = appendCopy(b.subs[label], fn)
}

// SubscribeAll registers fn for every knowgget change.
func (b *Base) SubscribeAll(fn SubscribeFunc) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.subsAll = appendCopy(b.subsAll, fn)
}

// appendCopy never writes into fns' backing array: a store that took
// the old list keeps walking it.
func appendCopy(fns []SubscribeFunc, fn SubscribeFunc) []SubscribeFunc {
	return append(fns[:len(fns):len(fns)], fn)
}

// Restore bulk-loads recovered state into the Base: state holds every
// knowgget under its Key(), and the given labels are marked static. An
// empty Base takes state over as its own, so the caller must not use
// it afterwards; a Base that holds knowledge already adds state to it.
// Restore fires no subscribers, no sync, and no journal hook — recovery
// runs before any of them are installed, and replayed state must not be
// re-propagated or re-journaled. Restore is the warm-start half of the
// durable-state design; it is not meant for use after traffic flows.
func (b *Base) Restore(state map[string]Knowgget, staticLabels []string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.entries) == 0 {
		b.entries = state
	} else {
		maps.Copy(b.entries, state)
	}
	for _, k := range state {
		// Resume the local version counter past every recovered local
		// collective change so post-restart versions stay monotonic.
		if k.Creator == b.local && k.Version > b.localVer {
			b.localVer = k.Version
		}
	}
	for _, label := range staticLabels {
		b.static[label] = true
	}
}

// StaticLabels returns the labels provided as a-priori knowledge,
// sorted — the static half of the state a snapshot must carry.
func (b *Base) StaticLabels() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.static))
	for label := range b.static {
		out = append(out, label)
	}
	sort.Strings(out)
	return out
}

// StaticCount is len(StaticLabels()). Labels are only ever added, so a
// grown count is a changed set.
func (b *Base) StaticCount() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.static)
}

// Snapshot returns a copy of every knowgget, sorted by key.
func (b *Base) Snapshot() []Knowgget {
	b.mu.RLock()
	defer b.mu.RUnlock()
	keys := make([]string, 0, len(b.entries))
	for key := range b.entries {
		keys = append(keys, key)
	}
	return b.sortedByKey(keys)
}

// Len returns the number of stored knowggets.
func (b *Base) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.entries)
}

// sortedByKey returns the entries stored under keys, in key order (nil
// for nil keys). Every entry is stored under its Key(), so sorting the
// map keys the caller already holds gives the order sorting on Key()
// would, without rebuilding two keys per comparison. The caller holds
// b.mu and gives keys away.
func (b *Base) sortedByKey(keys []string) []Knowgget {
	if keys == nil {
		return nil
	}
	sort.Strings(keys)
	out := make([]Knowgget, len(keys))
	for i, key := range keys {
		out[i] = b.entries[key]
	}
	return out
}
