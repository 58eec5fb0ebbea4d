package allocfloor

import "testing"

func TestCeilingReadsRatchet(t *testing.T) {
	for _, name := range []string{"route_fppc_protein3", "schedule_fppc_protein7_failed_attempt"} {
		if c := Ceiling(t, name); c <= 0 {
			t.Errorf("ceiling %s = %v, want > 0", name, c)
		}
	}
}
