# 0x100000000 is no 32-bit address: the assembler rejects line 6
# instead of truncating the origin to 0.
        .text
main:   li   $v0, 10
        syscall
        .data 0x100000000
x:      .word 7
