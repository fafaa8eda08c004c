package baseline

import "testing"

func TestDefaultPolicy(t *testing.T) {
	p := Default()
	if p.TimeoutSec != 300 {
		t.Fatalf("default timeout %v", p.TimeoutSec)
	}
}

func TestVulnerableTimeScalesWithDepartures(t *testing.T) {
	p := Policy{TimeoutSec: 300}
	if v := p.VulnerableTime(63); v != 63*300 {
		t.Fatalf("vulnerable time %v", v)
	}
	if v := p.VulnerableTime(0); v != 0 {
		t.Fatalf("zero departures vulnerable time %v", v)
	}
}

func TestAttackOpportunitiesAlwaysAvailable(t *testing.T) {
	p := Policy{TimeoutSec: 300}
	if got := p.AttackOpportunities(63, 6, 4); got != 63 {
		t.Fatalf("opportunities %d, want all 63", got)
	}
}

func TestAttackOpportunitiesWithAbsurdlyShortTimeout(t *testing.T) {
	// A 1-second time-out would beat even the co-worker; the adversary
	// gets nothing.
	p := Policy{TimeoutSec: 1}
	if got := p.AttackOpportunities(63, 6, 0); got != 0 {
		t.Fatalf("opportunities %d, want 0", got)
	}
}
