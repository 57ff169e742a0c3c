package coding

import "golisa/internal/model"

// NewTrialDecoder returns a decoder without the fixed-bit table, which
// tries every member of a group in turn: the plain first-match rule.
func NewTrialDecoder(m *model.Model) *Decoder { return &Decoder{m: m} }
