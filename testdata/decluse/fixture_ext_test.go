package fixture_test

import (
	"testing"

	"fixture"
)

func TestOnlyTests(t *testing.T) {
	if fixture.OnlyTests() != 1 {
		t.Fatal("OnlyTests")
	}
}
