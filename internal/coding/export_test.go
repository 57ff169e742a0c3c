package coding

import "golisa/internal/model"

// NewTrialDecoder returns a decoder without plans, which walks the coding
// tree for every word and tries every member of a group in turn: the
// plain first-match rule.
func NewTrialDecoder(m *model.Model) *Decoder { return &Decoder{m: m} }
