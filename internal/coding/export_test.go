package coding

// Built returns the number of decoders NewDecoder has built.
func Built() int64 { return built.Load() }
