package flow

import (
	"strconv"
	"testing"
	"time"
)

// TestCooldownLedger pins what the detectors rely on when they ask
// "may I say it again?": every case runs on one table with owner
// "mod"'s ledger acquired twice, as two module instances of one owner
// would.
func TestCooldownLedger(t *testing.T) {
	const cd = 10 * time.Second
	cases := []struct {
		name string
		run  func(t *testing.T, tbl *Table, a, b *Cooldown)
	}{
		{"a subject per entry", func(t *testing.T, _ *Table, a, b *Cooldown) {
			if !a.Pass("v", t0, cd) || !b.Pass("w", t0, cd) {
				t.Error("one subject's cooldown silenced another")
			}
		}},
		{"Hold never shortens, may extend", func(t *testing.T, _ *Table, a, b *Cooldown) {
			a.Pass("v", t0, cd)
			// This hold would end before the armed cooldown does.
			b.Hold("v", t0.Add(-5*time.Second), 8*time.Second)
			if !a.Armed("v", t0.Add(cd-time.Second)) {
				t.Error("Hold shortened an armed cooldown")
			}
			b.Hold("v", t0, 3*cd)
			if !a.Armed("v", t0.Add(2*cd)) || a.Armed("v", t0.Add(3*cd)) {
				t.Error("Hold did not keep the subject silent until exactly now+d")
			}
			if a.Pass("v", t0.Add(2*cd), cd) {
				t.Error("Pass went through a Hold")
			}
		}},
		{"skewed clocks", func(t *testing.T, _ *Table, a, b *Cooldown) {
			armed := t0.Add(5 * time.Second)
			a.Pass("v", armed, cd)
			if b.Pass("v", armed.Add(-time.Second), cd) {
				t.Error("a reader lagging the armer passed")
			}
			if b.Pass("v", armed.Add(cd-time.Nanosecond), cd) {
				t.Error("a reader ahead by less than the cooldown passed")
			}
			if !b.Pass("v", armed.Add(cd), cd) {
				t.Error("a reader at the deadline was refused")
			}
		}},
		{"an armed subject costs no allocation", func(t *testing.T, _ *Table, a, b *Cooldown) {
			a.Pass("v", t0, cd)
			now := t0.Add(time.Second)
			if n := testing.AllocsPerRun(100, func() {
				if b.Pass("v", now, cd) || !b.Armed("v", now) {
					t.Error("armed subject passed")
				}
			}); n != 0 {
				t.Errorf("Pass+Armed on an armed subject: %v allocs, want 0", n)
			}
		}},
		{"owners gate independently", func(t *testing.T, tbl *Table, a, _ *Cooldown) {
			other := tbl.Cooldown("other")
			defer other.Release()
			a.Pass("v", t0, cd)
			if !other.Pass("v", t0, cd) {
				t.Error("one owner's armed cooldown silenced another owner")
			}
		}},
		{"the last release forgets", func(t *testing.T, tbl *Table, a, b *Cooldown) {
			a.Pass("v", t0, cd)
			a.Release()
			again := tbl.Cooldown("mod")
			if again != b || again.Pass("v", t0.Add(time.Second), cd) {
				t.Error("an earlier release dropped the armed cooldowns a holder still has")
			}
			again.Release()
			b.Release()
			fresh := tbl.Cooldown("mod")
			defer fresh.Release()
			if !fresh.Pass("v", t0.Add(time.Second), cd) {
				t.Error("a ledger acquired after the last release kept the old cooldowns")
			}
		}},
		{"not observed per frame", func(t *testing.T, tbl *Table, _, _ *Cooldown) {
			if n := len(tbl.trk.observe); n != 0 {
				t.Errorf("observe list holds %d entries with only ledgers acquired, want 0", n)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tbl := NewTable(Config{})
			a, b := tbl.Cooldown("mod"), tbl.Cooldown("mod")
			if a != b {
				t.Fatal("one owner got distinct ledgers from one table")
			}
			tc.run(t, tbl, a, b)
		})
	}
}

// TestCooldownForgetsLapsed: subjects are identities an attacker can
// forge, so a ledger that only grew would be a memory leak for as long
// as its module stays active. Lapsed entries go, armed ones stay.
func TestCooldownForgetsLapsed(t *testing.T) {
	const cd = 10 * time.Second
	l := NewCooldown()
	for i := 0; i < 10000; i++ {
		l.Pass(strconv.Itoa(i), t0.Add(time.Duration(i)*time.Microsecond), cd)
	}
	l.Hold("patient", t0, 10*cd)
	later := t0.Add(2 * cd)
	l.Pass("one more", later, cd)
	if n := len(l.until); n > 2 {
		t.Errorf("%d entries live after 10000 cooldowns lapsed, want 2", n)
	}
	if !l.Armed("patient", later) || !l.Armed("one more", later) {
		t.Error("the sweep dropped a still-armed subject")
	}
}
