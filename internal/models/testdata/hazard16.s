; Trips every hazard class of hazard16.lisa, with NOP spacing so each
; hazard's bubbles drain before the next hazard op reaches execute.
    ADDI 1, 5
    LD   2, 3
    NOP
    NOP
    HOLD 3, 2
    NOP
    NOP
    ESC
    NOP
    NOP
    BR   after
    NOP            ; wrong path, flushed
after:
    ADDI 4, 2
    HALT
