package pop

// ShrinkSplitter lets the external equivalence suite run a variant with
// shrinkSplitter's knobs, so its test-scale pair-matrix batches recurse
// through the splitter tree instead of running as the tree's root leaf. Call the
// returned function to restore the production knobs.
func ShrinkSplitter() (restore func()) { return shrunkSplitter() }
