package comm

import "testing"

func TestParseFaultPlan(t *testing.T) {
	plan, err := ParseFaultPlan("slow=3:4,crash=5@8,slow=1:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Slow) != 2 || plan.Slow[3] != 4 || plan.Slow[1] != 2 {
		t.Errorf("slow = %v, want rank 3 ×4 and rank 1 ×2", plan.Slow)
	}
	if len(plan.CrashAt) != 1 || plan.CrashAt[5] != 8 {
		t.Errorf("crash = %v, want rank 5 @ boundary 8", plan.CrashAt)
	}

	if p, err := ParseFaultPlan(""); p != nil || err != nil {
		t.Errorf("empty spec should be (nil, nil), got (%v, %v)", p, err)
	}
	for _, bad := range []string{"slow", "slow=3", "slow=x:2", "slow=3:y", "crash=5", "crash=5@z",
		"evict=500ms", "nope=1", "timeout=5ms", "retries=9",
		"seed=1", "drop=0.1", "delay=1", "burst=0>1@0+1", "seed=1,slow=1:2"} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("spec %q should fail to parse", bad)
		}
	}
}
