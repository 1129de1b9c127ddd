package flow

import "time"

// Cooldown is one owner's alert-repeat ledger: per subject (the victim,
// suspect or pair a verdict names), the capture time until which the
// owner stays silent about it. It lives in the table's registry beside
// the evidence (Table.Cooldown), keyed by owner; it observes no packets
// and is not on the per-frame observe list. The ledger has no clock of
// its own: every call carries the caller's capture time.
type Cooldown struct {
	until map[string]time.Time
	// sweepAt is the capture time by which every entry that survived
	// the last sweep has lapsed (see arm).
	sweepAt time.Time

	handle
}

// cooldownKey keys a ledger in the registry by its owner.
type cooldownKey string

// NewCooldown creates a standalone ledger (not attached to a table).
func NewCooldown() *Cooldown { return &Cooldown{until: make(map[string]time.Time)} }

// Cooldown acquires the owner's ledger (a module passes its name),
// creating it on first use. Release the handle when done; its armed
// cooldowns are forgotten with the last holder's release.
func (t *Table) Cooldown(owner string) *Cooldown {
	return acquire(t.trk, cooldownKey(owner), NewCooldown)
}

// lapsed is the alert-repeat decision, the one place a capture time
// meets a stored deadline: silence holds while now is before it. A
// subject never armed has the zero deadline, long lapsed.
func lapsed(until, now time.Time) bool { return !now.Before(until) }

// Armed reports whether the subject is silent at now, changing nothing:
// the cheap exit before expensive evidence gathering. Only Pass decides.
func (l *Cooldown) Armed(subject string, now time.Time) bool {
	return !lapsed(l.until[subject], now)
}

// Pass reports whether the owner may raise a verdict about subject at
// now, and if so arms the cooldown. Passing arms even if the caller
// then withholds the alert (a knowledge veto), which keeps one decision
// per burst.
func (l *Cooldown) Pass(subject string, now time.Time, cooldown time.Duration) bool {
	if !lapsed(l.until[subject], now) {
		return false
	}
	l.arm(subject, now, now.Add(cooldown))
	return true
}

// Hold keeps the subject silent until at least now+d without raising
// anything. It never shortens an armed cooldown: a Pass with a longer
// cooldown keeps its deadline.
func (l *Cooldown) Hold(subject string, now time.Time, d time.Duration) {
	if until := now.Add(d); until.After(l.until[subject]) {
		l.arm(subject, now, until)
	}
}

// arm stores the deadline and forgets lapsed entries: subjects are
// often identities an attacker forges, so the ledger must not grow for
// as long as its owner stays active. Once the capture clock reaches
// sweepAt every entry the last sweep kept has lapsed, so one pass drops
// them; an entry is visited at most twice, the cost is amortised O(1)
// per arm, and the live size is bounded by the subjects armed within
// the longest cooldown.
func (l *Cooldown) arm(subject string, now, until time.Time) {
	l.until[subject] = until
	if !lapsed(l.sweepAt, now) {
		return
	}
	l.sweepAt = time.Time{}
	for s, u := range l.until {
		if lapsed(u, now) {
			delete(l.until, s)
		} else if u.After(l.sweepAt) {
			l.sweepAt = u
		}
	}
}
