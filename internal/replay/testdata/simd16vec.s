; A simd16 vector program: a broadcast, a store, two loads and an add,
; so every vector instruction writes the banked vector register file vreg.
    LDI R1, 3
    LDI R2, 100
    NOP
    VBCAST V0, R1
    VST V0, R2, 0
    VLD V1, R2, 0
    VLD V2, R2, 0
    VADD V3, V1, V2
    HALT
