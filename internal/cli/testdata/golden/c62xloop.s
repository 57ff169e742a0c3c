; A two-iteration dot product on c62x, one instruction per fetch packet:
; loads with memory wait states, a multicycle NOP, a taken branch with
; its delay slots, and IDLE. The loop head is word 48.
MVK .S1 A3, 1
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
MVK .S1 A8, 2
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
MVK .S1 A4, 0
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
MVK .S1 A5, 100
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
MVK .S1 A9, 0
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
LDW .D1 *A4[0], A6
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
LDW .D2 *A5[0], A7
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
ADD .L1 A4, A4, A3
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
ADD .L2 A5, A5, A3
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
NOP 1
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
MPY .M1 A10, A6, A7
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
SUB .L1 A8, A8, A3
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
ADD .L1 A9, A9, A10
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
BNZ .S1 A8, 48
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
STW .D1 A9, *A0[200]
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
IDLE
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
