# An alignment of 2^40 does not fit a 32-bit address: the assembler
# rejects it on line 8 instead of aligning to 2^(40 mod 32).
        .text
main:   li   $v0, 10
        syscall
        .data
a:      .byte 1
        .align 40
b:      .word 2
