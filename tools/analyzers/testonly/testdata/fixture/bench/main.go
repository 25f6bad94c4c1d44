package main

import "fixture/lib"

func main() {
	println(lib.BenchOnly() + lib.Total([]lib.Shape{lib.Square{N: 2}}))
}
