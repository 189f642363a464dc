package tdse

// ScreenFallbacks returns the number of task types Explore has evaluated
// on the full path since the process started.
func ScreenFallbacks() uint64 { return screenFallbacks.Load() }
