package serve

import "testing"

func TestBodiesDeterministic(t *testing.T) {
	a := Bodies(22, 8)
	b := Bodies(22, 8)
	if len(a) != 8 || len(b) != 8 {
		t.Fatalf("lengths: %d / %d, want 8", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) == 0 {
			t.Fatalf("body %d is empty", i)
		}
		if string(a[i]) != string(b[i]) {
			t.Fatalf("body %d differs across identical seeds", i)
		}
	}
	if c := Bodies(23, 8); string(c[0]) == string(a[0]) {
		t.Fatal("different seeds rendered identical bodies")
	}
}
