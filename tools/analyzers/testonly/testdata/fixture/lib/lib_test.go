package lib

func useOnlyTested() int { return OnlyTested() }
