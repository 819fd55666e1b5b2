package a

import "testing"

func TestA(t *testing.T) {
	TestOnly()
	T{}.N()
	NoReason()
	_ = Self(V2)
	_ = (&Orphan{}).size()
}
