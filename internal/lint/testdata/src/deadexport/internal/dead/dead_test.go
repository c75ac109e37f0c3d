package dead

func use() { OnlyOwnTest() }
