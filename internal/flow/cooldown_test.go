package flow

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCooldownLedger pins what the detectors rely on when they ask
// "may I say it again?": every case runs on two tables sharing one
// registry — two shards of one node — each holding owner "mod"'s
// ledger.
func TestCooldownLedger(t *testing.T) {
	const cd = 10 * time.Second
	cases := []struct {
		name string
		run  func(t *testing.T, reg *Trackers, a, b *Cooldown)
	}{
		{"one Pass per incident across shards", func(t *testing.T, _ *Trackers, a, b *Cooldown) {
			var passed atomic.Int32
			var wg sync.WaitGroup
			for _, l := range []*Cooldown{a, b} {
				wg.Add(1)
				go func(l *Cooldown) {
					defer wg.Done()
					for i := 0; i < 1000; i++ {
						if l.Pass("v", t0.Add(time.Duration(i)*time.Millisecond), cd) {
							passed.Add(1)
						}
					}
				}(l)
			}
			wg.Wait()
			if n := passed.Load(); n != 1 {
				t.Errorf("%d calls passed inside one cooldown, want exactly 1", n)
			}
		}},
		{"a subject per entry", func(t *testing.T, _ *Trackers, a, b *Cooldown) {
			if !a.Pass("v", t0, cd) || !b.Pass("w", t0, cd) {
				t.Error("one subject's cooldown silenced another")
			}
		}},
		{"Hold never shortens, may extend", func(t *testing.T, _ *Trackers, a, b *Cooldown) {
			a.Pass("v", t0, cd)
			// A laggard's hold would end before the armed cooldown does.
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
		{"skewed clocks", func(t *testing.T, _ *Trackers, a, b *Cooldown) {
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
		{"an armed subject costs no allocation", func(t *testing.T, _ *Trackers, a, b *Cooldown) {
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
		{"not observed per frame", func(t *testing.T, reg *Trackers, a, b *Cooldown) {
			if n := len(reg.snapshot()); n != 0 {
				t.Errorf("observe list holds %d entries with only ledgers acquired, want 0", n)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewTrackers()
			a := NewTable(Config{Trackers: reg}).Cooldown("mod")
			b := NewTable(Config{Trackers: reg}).Cooldown("mod")
			if a != b {
				t.Fatal("tables sharing a registry yielded distinct ledgers for one owner")
			}
			tc.run(t, reg, a, b)
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
