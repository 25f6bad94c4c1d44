package shim

// What the external tests (package shim_test, which can import
// internal/trace) need of the journal's framing.
const FrameHeader = frameHeader

var SealFrame = sealFrame

func JournalHeader(program string) []byte { return fileHeader(journalMagic, program) }

// LiveShim is the shard's current incarnation (nil while it is down).
func (sd *Shard) LiveShim() *Shim { return sd.currentShim() }

// WidthFile is the differential harness's width-boundary spec.
var WidthFile = widthFile
