package main

import aa "fixture/internal/a"

// Unused is exported outside internal/, which the rule does not cover.
func Unused() {}

func main() {
	aa.T{}.M()
	println(aa.Used() + aa.V1)
}
