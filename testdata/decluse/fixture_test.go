package fixture

import "testing"

func TestWidget(t *testing.T) {
	if NewWidget(2).Size() != 2 {
		t.Fatal("size")
	}
}
