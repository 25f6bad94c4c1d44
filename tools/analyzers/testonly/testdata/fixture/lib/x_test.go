package lib_test

import "fixture/lib"

func useXTested() int { return lib.XTested() }
