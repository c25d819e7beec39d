# dot.s — dot product of two small vectors, scaled by a call and reduced
# twice, so the translation shows the inline multiply, the runtime
# divider, spilled registers, a loop, a call/return and two labels on
# one instruction, and the redundancy checker has identities to remove.
	.data
xs:	.word 3, -4, 5, 7
ys:	.word 2, 6, -1, 3
	.text
	la   s0, xs
	la   s1, ys
	li   t2, 4          # n
	li   a0, 0          # sum
	li   t5, 0          # passes
loop:
	lw   t0, 0(s0)
	lw   t1, 0(s1)
	mul  t0, t0, t1
	add  a0, a0, t0
	addi s0, s0, 4
	addi s1, s1, 4
	addi t2, t2, -1
	bnez t2, loop
	jal  ra, scale
again:
	addi a0, a0, 0
	li   t3, 3
	rem  a1, a0, t3
	addi t5, t5, 1
	li   t6, 2
	blt  t5, t6, again
	ebreak
scale:
	slli a0, a0, 2
	li   t4, 5
	div  a0, a0, t4
	ret
