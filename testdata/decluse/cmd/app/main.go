package main

import (
	"fmt"

	"fixture"
)

func main() {
	w := fixture.NewWidget(3)
	fmt.Println(fixture.Total(fixture.Squares(1, 2)), w.Size(), len(fixture.Pairs([]fixture.Record{{Name: "a"}})), fixture.Fast(1))
}
